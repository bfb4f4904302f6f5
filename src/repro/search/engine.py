"""The query engine: bounded k-shortest-path search plus ranking.

Reproduces Section 5's configuration: for a query ``(t_in, t_out)`` with
shortest solution length ``m``, construct all acyclic paths of length
≤ ``m + extra_cost`` (paper: ``m+1``), convert them to jungloids, and
rank. Multi-source queries (one per visible variable, plus ``void``)
share one backward distance map, so they cost about the same as a single
query.

Interactivity (~1s answers, Section 5) is enforced by an optional
wall-clock budget: :meth:`GraphSearch.solve_multi_outcome` runs the
degradation ladder — full ``m+extra`` window, then ``extra_cost=0``
window, then a single shortest path per source — and wraps whatever it
gathered in a :class:`~repro.robustness.QueryOutcome` instead of raising
or hanging. With no budget configured the engine behaves exactly as the
paper's tool.

Every query runs on one engine, built from four layers:

* **the compiled kernel** (:mod:`repro.search.kernel`): the live graph is
  lowered once per revision into a CSR snapshot with precomputed integer
  edge costs, and both the backward Dijkstra and the bounded enumeration
  run as iterative integer loops. The recursive walk in
  :mod:`repro.search.paths` is kept only as the oracle the kernel is
  tested against; this module never calls it.
* **ranking inside the kernel**: every part of the rank key except the
  textual tie-break is a function of single steps
  (:func:`~repro.search.ranking.step_rank_parts`). The compiled graph
  keeps those parts per CSR slot, filled on first touch, so a path's key
  is a sum over its slots; the tie-break text is the rendering already
  made to de-duplicate, so each candidate is rendered once.
* **a bounded LRU distance cache** (:mod:`repro.search.cache`): one
  distance map per recently queried target, dropped wholesale when the
  graph's ``revision`` moves.
* **batch serving** (:meth:`GraphSearch.solve_batch`): a request batch is
  grouped by target so each distinct target pays for one Dijkstra no
  matter how many queries want it — the paper's multi-source trick
  generalized across a batch — with path→jungloid conversion and
  rendering memoized across the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..graph import Node, SignatureGraph
from ..jungloids import CostModel, DEFAULT_COST_MODEL, Jungloid
from ..robustness import (
    Clock,
    Deadline,
    DegradationReason,
    QueryOutcome,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
    SYSTEM_CLOCK,
)
from ..typesystem import JavaType, VOID
from .cache import DEFAULT_MAX_CACHED_TARGETS, LRUDistanceCache
from .kernel import (
    CompiledGraph,
    EnumerationReport,
    KernelDistances,
    UNREACHABLE,
    compile_graph,
    distances_for,
    kernel_enumerate_paths,
    kernel_shortest_path,
)
from .ranking import PathRankParts, path_rank_parts, step_rank_parts


@dataclass(frozen=True)
class SearchConfig:
    """Tunable search parameters (defaults = the paper's implementation)."""

    #: Window above the cheapest cost: the paper searches ``m + 1``.
    extra_cost: int = 1
    #: Hard cap on the cost of any path, guarding degenerate graphs.
    absolute_max_cost: int = 10
    #: Cap on raw paths enumerated per source node.
    max_paths_per_source: int = 4000
    #: Cap on ranked results returned to the caller.
    max_results: int = 100
    #: Wall-clock budget per query in milliseconds; ``None`` = unlimited.
    time_budget_ms: Optional[float] = None
    #: How many DFS expansions between deadline polls.
    deadline_check_every: int = 128
    #: Budget fractions reserved for the first two ladder rungs; the
    #: remainder funds the (always-affordable) shortest-path rung.
    ladder_fractions: Tuple[float, float] = (0.7, 0.95)
    #: Bound on the per-target distance maps retained between queries.
    max_cached_targets: int = DEFAULT_MAX_CACHED_TARGETS
    #: Demote statically INVIABLE jungloids below JUSTIFIED/PLAUSIBLE
    #: ones in the ranked order (no effect without a verdict index).
    analysis_ranking: bool = True


@dataclass(frozen=True)
class SearchResult:
    """One ranked solution: the jungloid plus which source produced it."""

    jungloid: Jungloid
    source_type: JavaType

    @property
    def is_void_source(self) -> bool:
        return self.source_type == VOID


@dataclass(frozen=True)
class BatchQuery:
    """One query of a request batch: source types plus the target."""

    sources: Tuple[JavaType, ...]
    target: JavaType

    @classmethod
    def of(cls, query: "BatchQueryLike") -> "BatchQuery":
        """Coerce ``(t_in, t_out)`` / ``(sources, t_out)`` tuples."""
        if isinstance(query, BatchQuery):
            return query
        sources, target = query
        if isinstance(sources, (list, tuple)):
            return cls(sources=tuple(sources), target=target)
        return cls(sources=(sources,), target=target)


#: Anything :meth:`GraphSearch.solve_batch` accepts as one query.
BatchQueryLike = Union[
    BatchQuery,
    Tuple[JavaType, JavaType],
    Tuple[Sequence[JavaType], JavaType],
]

#: A candidate's sort key: ``(demotion, cost, crossings, generality, text)``.
RankTuple = Tuple[int, int, int, int, str]
#: Batch-wide slot path → (jungloid, rendering) memo, per compiled graph.
PathMemo = Dict[CompiledGraph, Dict[Tuple[int, ...], Tuple[Jungloid, str]]]


class GraphSearch:
    """Answers jungloid queries against a signature or jungloid graph."""

    def __init__(
        self,
        graph: SignatureGraph,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: SearchConfig = SearchConfig(),
        clock: Clock = SYSTEM_CLOCK,
        verdicts=None,
    ):
        self.graph = graph
        self.cost_model = cost_model
        self.config = config
        self.clock = clock
        #: Optional CastVerdictIndex consulted by analysis-aware ranking.
        self.verdicts = verdicts
        self._dist_cache: LRUDistanceCache = LRUDistanceCache(
            max_targets=config.max_cached_targets
        )
        self._dist_cache_revision = graph.revision
        self._compiled: Optional[CompiledGraph] = None
        #: Counting hook: fresh backward-Dijkstra runs (cache misses).
        #: Batch tests assert on this to prove distance maps are shared.
        self.distance_computes = 0

    def _edge_cost(self, edge) -> int:
        """Edge weight = the ranking heuristic's size estimate (§3.2)."""
        return self.cost_model.step_total(edge.elementary)

    # ------------------------------------------------------------------
    # Single query
    # ------------------------------------------------------------------

    def solve(self, t_in: JavaType, t_out: JavaType) -> List[Jungloid]:
        """All ranked solution jungloids for the query ``(t_in, t_out)``."""
        results = self.solve_multi([t_in], t_out)
        return [r.jungloid for r in results]

    def solve_outcome(
        self, t_in: JavaType, t_out: JavaType, deadline: Optional[Deadline] = None
    ) -> QueryOutcome:
        """Budget-aware single query; results are :class:`SearchResult`."""
        return self.solve_multi_outcome([t_in], t_out, deadline=deadline)

    # ------------------------------------------------------------------
    # Multi-source query (code-completion mode)
    # ------------------------------------------------------------------

    def solve_multi(
        self, sources: Sequence[JavaType], t_out: JavaType
    ) -> List[SearchResult]:
        """Ranked solutions for every source at once, best first.

        Each source gets its own ``m + extra`` window (a long-way source
        must not be cut off because another source is adjacent to the
        target), but all share the single backward distance map.
        """
        return list(self.solve_multi_outcome(sources, t_out).results)

    def solve_multi_outcome(
        self,
        sources: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline] = None,
    ) -> QueryOutcome:
        """Like :meth:`solve_multi`, but deadline-aware and fault-isolated.

        Runs the degradation ladder per source: the full ``m + extra``
        window first; if the deadline cuts it short (or the search
        faults), the cheaper ``extra_cost=0`` window; and finally one
        greedy shortest path, which always completes. The outcome carries
        ``degraded`` plus a structured reason per cut. A fault before the
        ladder starts (compiling the graph, the distance map) degrades
        the outcome too; it never raises. With no deadline and no faults
        the results are exactly :meth:`solve_multi`'s.

        This is a batch of one: it shares :meth:`solve_batch`'s code path.
        """
        return self.solve_batch([BatchQuery(tuple(sources), t_out)], deadline=deadline)[0]

    # ------------------------------------------------------------------
    # Batch serving
    # ------------------------------------------------------------------

    def solve_batch(
        self,
        queries: Sequence[BatchQueryLike],
        deadline: Optional[Deadline] = None,
        time_budget_ms: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Answer a whole request batch, amortizing shared work.

        Queries are grouped by target so each distinct target runs one
        backward Dijkstra for the entire batch (Section 5's multi-source
        amortization, generalized across requests); path→jungloid
        conversion and rendering are memoized batch-wide. Outcomes
        come back in input order. A fault while answering one query
        degrades that query's outcome only — the rest of the batch is
        unaffected.

        ``deadline``, when given, bounds the whole batch; otherwise
        ``time_budget_ms`` (argument, falling back to the configured
        value) is minted per query, exactly as in one-at-a-time serving.
        """
        if time_budget_ms is None:
            time_budget_ms = self.config.time_budget_ms
        batch = [BatchQuery.of(q) for q in queries]
        outcomes: List[Optional[QueryOutcome]] = [None] * len(batch)
        path_memo: PathMemo = {}
        groups: Dict[Node, List[int]] = {}
        for i, query in enumerate(batch):
            groups.setdefault(query.target, []).append(i)
        for target, indices in groups.items():
            if not self.graph.has_node(target):
                for i in indices:
                    outcomes[i] = QueryOutcome(results=(), degraded=False)
                continue
            try:
                dist = self._distances(target)
            except Exception as exc:  # the whole target group is cut off
                for i in indices:
                    outcomes[i] = self._faulted_outcome(target, exc)
                continue
            for i in indices:
                per_query = deadline
                if per_query is None and time_budget_ms is not None:
                    per_query = Deadline.after(time_budget_ms, self.clock)
                try:
                    outcomes[i] = self._solve_with_dist(
                        batch[i].sources,
                        target,
                        per_query,
                        dist,
                        path_memo=path_memo,
                    )
                except Exception as exc:  # isolate: one query, not the batch
                    outcomes[i] = self._faulted_outcome(target, exc)
        return [o if o is not None else QueryOutcome() for o in outcomes]

    @staticmethod
    def _faulted_outcome(target: Node, exc: Exception) -> QueryOutcome:
        return QueryOutcome(
            results=(),
            degraded=True,
            reasons=(
                DegradationReason(REASON_FAULT, RUNG_FULL_WINDOW, f"{target}: {exc}"),
            ),
        )

    # ------------------------------------------------------------------
    # Core ladder
    # ------------------------------------------------------------------

    def _solve_with_dist(
        self,
        sources: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline],
        dist: KernelDistances,
        path_memo: Optional[PathMemo] = None,
    ) -> QueryOutcome:
        ranked, reasons, rungs = self._ranked_candidates(
            sources, t_out, deadline, dist, path_memo
        )
        return QueryOutcome(
            results=tuple(result for _, result in ranked[: self.config.max_results]),
            degraded=bool(reasons),
            reasons=tuple(reasons),
            rungs=tuple(rungs),
            elapsed_ms=deadline.elapsed_ms() if deadline is not None else None,
        )

    def _ranked_candidates(
        self,
        sources: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline],
        dist: KernelDistances,
        path_memo: Optional[PathMemo] = None,
    ) -> Tuple[List[Tuple[RankTuple, SearchResult]], List[DegradationReason], List[str]]:
        """Run the degradation ladder; every candidate with its rank key.

        Candidates come back sorted best-first. The key is
        ``(demotion, cost, crossings, generality, text)``, the order of
        :class:`~repro.search.ranking.ViabilityRankKey`; ``text`` is the
        rendering already made to de-duplicate, so each candidate is
        rendered once.
        """
        collected: List[Tuple[RankTuple, SearchResult]] = []
        seen_texts = set()
        reasons: List[DegradationReason] = []
        rungs_used: List[str] = [RUNG_FULL_WINDOW]
        sub_full = deadline.fraction(self.config.ladder_fractions[0]) if deadline else None
        sub_zero = deadline.fraction(self.config.ladder_fractions[1]) if deadline else None
        verdicts = self.verdicts if self.config.analysis_ranking else None
        # Paths are CSR slot tuples, ranked from per-slot parts.
        compiled = dist.compiled
        rank_parts = self._slot_rank_parts(compiled, verdicts)
        memo = path_memo.setdefault(compiled, {}) if path_memo is not None else {}

        def collect(source: JavaType, paths: Iterable[Tuple[int, ...]]) -> None:
            for path in paths:
                entry = memo.get(path)
                if entry is None:
                    jungloid = SignatureGraph.path_to_jungloid(compiled.edges(path))
                    text = jungloid.render_expression("x")
                    memo[path] = (jungloid, text)
                else:
                    jungloid, text = entry
                if (source, text) in seen_texts:
                    continue
                key = rank_parts(path, jungloid) + (text,)
                seen_texts.add((source, text))
                collected.append((key, SearchResult(jungloid, source)))

        def use_rung(rung: str) -> None:
            if rung not in rungs_used:
                rungs_used.append(rung)

        for source in _unique(sources):
            if not self.graph.has_node(source):
                continue
            m = dist.get(source, UNREACHABLE)
            if m >= UNREACHABLE:
                continue
            bound = min(m + self.config.extra_cost, self.config.absolute_max_cost)
            report = EnumerationReport()
            fault: Optional[Exception] = None
            try:
                collect(
                    source,
                    self._enumerate(source, t_out, bound, dist, sub_full, report),
                )
            except Exception as exc:  # fault isolation: one source, not the query
                fault = exc
            if fault is not None:
                reasons.append(
                    DegradationReason(
                        REASON_FAULT, RUNG_FULL_WINDOW, f"{source}: {fault}"
                    )
                )
            elif not report.deadline_expired:
                continue  # source fully enumerated at the top rung
            else:
                reasons.append(
                    DegradationReason(
                        REASON_DEADLINE,
                        RUNG_FULL_WINDOW,
                        f"{source}: m+{self.config.extra_cost} window truncated",
                    )
                )

            # Rung 2: the zero-extra window (skip when it equals rung 1).
            settled = False
            if self.config.extra_cost > 0 or fault is not None:
                use_rung(RUNG_ZERO_EXTRA)
                zero_report = EnumerationReport()
                try:
                    collect(
                        source,
                        self._enumerate(
                            source,
                            t_out,
                            min(m, self.config.absolute_max_cost),
                            dist,
                            sub_zero,
                            zero_report,
                        ),
                    )
                    if zero_report.deadline_expired:
                        reasons.append(
                            DegradationReason(
                                REASON_DEADLINE,
                                RUNG_ZERO_EXTRA,
                                f"{source}: zero-extra window truncated",
                            )
                        )
                    else:
                        settled = True
                except Exception as exc:
                    reasons.append(
                        DegradationReason(
                            REASON_FAULT, RUNG_ZERO_EXTRA, f"{source}: {exc}"
                        )
                    )

            # Rung 3: one greedy shortest path — always affordable.
            if not settled:
                use_rung(RUNG_SHORTEST_PATH)
                try:
                    fallback = kernel_shortest_path(dist.compiled, source, t_out, dist=dist)
                    if fallback is not None:
                        collect(source, [fallback])
                except Exception as exc:
                    reasons.append(
                        DegradationReason(
                            REASON_FAULT, RUNG_SHORTEST_PATH, f"{source}: {exc}"
                        )
                    )

        collected.sort(key=itemgetter(0))
        return collected, reasons, rungs_used

    def solve_from_context(
        self, visible_types: Sequence[JavaType], t_out: JavaType
    ) -> List[SearchResult]:
        """The completion reduction (Section 1): every visible variable's
        type is a source, plus ``void`` for constructor/static chains."""
        return self.solve_multi(list(visible_types) + [VOID], t_out)

    def solve_from_context_outcome(
        self,
        visible_types: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline] = None,
    ) -> QueryOutcome:
        """Budget-aware variant of :meth:`solve_from_context`."""
        return self.solve_multi_outcome(
            list(visible_types) + [VOID], t_out, deadline=deadline
        )

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------

    def _enumerate(
        self,
        source: JavaType,
        t_out: JavaType,
        bound: int,
        dist: KernelDistances,
        deadline: Optional[Deadline],
        report: EnumerationReport,
    ) -> Iterable[Tuple[int, ...]]:
        """Bounded kernel enumeration under this engine's caps."""
        return kernel_enumerate_paths(
            dist.compiled,
            source,
            t_out,
            bound,
            dist=dist,
            max_paths=self.config.max_paths_per_source,
            deadline=deadline,
            report=report,
            check_every=self.config.deadline_check_every,
        )

    def _compiled_graph(self) -> CompiledGraph:
        """The CSR snapshot for the current revision, compiled on demand.

        A compile failure propagates; the query paths turn it into a
        degraded outcome.
        """
        if self._compiled is None or self._compiled.revision != self.graph.revision:
            self._compiled = compile_graph(self.graph, edge_cost=self._edge_cost)
        return self._compiled

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def shortest_cost(self, t_in: JavaType, t_out: JavaType) -> Optional[int]:
        """Cheapest solution cost for a query, or None if unreachable."""
        if not self.graph.has_node(t_out):
            return None
        m = self._distances(t_out).get(t_in, UNREACHABLE)
        return None if m >= UNREACHABLE else m

    def _distances(self, target: Node) -> KernelDistances:
        """The per-target distance map, LRU-cached and revision-guarded.

        ``target`` must be a node of the graph.
        """
        revision = self.graph.revision
        if revision != self._dist_cache_revision:
            # The graph changed (e.g. mined paths grafted in or removed).
            # When the graph can bound which targets the mutations touched
            # (delta grafting records an invalidation log), drop only
            # those maps; otherwise distances computed against the old
            # edge set are all potentially stale — flush everything.
            affected = self.graph.invalidated_targets_since(self._dist_cache_revision)
            if affected is None:
                self._dist_cache.clear()
            else:
                self._dist_cache.invalidate(affected)
            self._dist_cache_revision = revision
        cached = self._dist_cache.get(target)
        if cached is not None:
            return cached
        fresh = distances_for(self._compiled_graph(), target)
        self.distance_computes += 1
        self._dist_cache.put(target, fresh)
        return fresh

    def set_verdicts(self, verdicts) -> None:
        """Swap the verdict index used by analysis-aware ranking.

        The compiled graph's per-slot rank parts embed the demotion
        bucket of the index they were derived from, so the next query
        re-derives them (see :meth:`_slot_rank_parts`).
        """
        self.verdicts = verdicts

    def _slot_rank_parts(self, compiled: CompiledGraph, verdicts):
        """A function giving a slot path's rank parts, summed per slot.

        Each slot's :func:`~repro.search.ranking.step_rank_parts` is
        computed on first touch and kept in ``compiled.rank_parts``. The
        array belongs to the verdict index it was filled under: a
        different index (a ``set_verdicts`` swap) starts it afresh, and
        so does a recompile, which makes a new :class:`CompiledGraph`.
        """
        if compiled.rank_parts is None or compiled.rank_verdicts is not verdicts:
            compiled.rank_parts = [None] * compiled.edge_count
            compiled.rank_verdicts = verdicts
        parts = compiled.rank_parts
        refs = compiled.out_edges_ref
        registry = self.graph.registry
        cost_model = self.cost_model

        def rank_parts(slots: Tuple[int, ...], jungloid: Jungloid) -> PathRankParts:
            for slot in slots:
                if parts[slot] is None:
                    parts[slot] = step_rank_parts(
                        refs[slot].elementary, registry, cost_model, verdicts
                    )
            return path_rank_parts(
                [parts[slot] for slot in slots], registry, jungloid.output_type
            )

        return rank_parts

    def with_config(self, **overrides) -> "GraphSearch":
        """A copy of this search with config fields overridden."""
        return GraphSearch(
            self.graph,
            self.cost_model,
            replace(self.config, **overrides),
            clock=self.clock,
            verdicts=self.verdicts,
        )


def _unique(items: Iterable[JavaType]) -> List[JavaType]:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
