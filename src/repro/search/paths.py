"""The reference search: the oracle the compiled kernel is checked against.

The paper limits search to acyclic paths (all desired solutions observed
were acyclic) and, per Section 5, constructs all paths of cost ≤ m+1,
where m is the cost of the query's cheapest path. Cost is the ranking
heuristic's size estimate: widening edges are free, ordinary elementary
jungloids cost 1, and each reference-typed free variable adds the
estimated 2 (Section 3.2's extension of the length heuristic). Using the
same estimate for the window and for ranking keeps short-but-incomplete
paths (constructor calls full of free variables) from shrinking the
window below honest solutions.

The implementation:

* a backward Dijkstra pass from the target gives ``dist(n)`` = minimum
  remaining cost from ``n`` to the target;
* a forward depth-first expansion from the source prunes any prefix whose
  cost plus ``dist`` exceeds the bound.

This module walks the live graph with a recursive generator — the plain
statement of the algorithm. :class:`~repro.search.GraphSearch` never
calls it: queries run on the CSR kernel (:mod:`repro.search.kernel`),
which must match these functions path for path. :func:`reference_solve`
composes them into a whole unbudgeted query, the answer the differential
tests and ``bench-search`` hold the engine to.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph import Edge, Node, SignatureGraph
from ..jungloids import CostModel
from ..robustness import Deadline
from ..typesystem import JavaType
from .engine import SearchConfig, SearchResult
from .kernel import EdgeCost, EnumerationReport, UNREACHABLE, unit_cost
from .ranking import viability_rank_key


def distances_to(
    graph: SignatureGraph, target: Node, edge_cost: EdgeCost = unit_cost
) -> Dict[Node, int]:
    """Minimum path cost from every node to ``target`` (backward Dijkstra)."""
    dist: Dict[Node, int] = {target: 0}
    heap: List[Tuple[int, int, Node]] = [(0, 0, target)]
    counter = 0  # tie-break so heterogeneous nodes never get compared
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist.get(node, UNREACHABLE):
            continue
        for edge in graph.in_edges(node):
            nd = d + edge_cost(edge)
            if nd < dist.get(edge.source, UNREACHABLE):
                dist[edge.source] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, edge.source))
    return dist


def shortest_length(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    dist: Optional[Dict[Node, int]] = None,
    edge_cost: EdgeCost = unit_cost,
) -> int:
    """Cheapest cost from ``source`` to ``target``.

    Returns :data:`UNREACHABLE` when no path exists.
    """
    if dist is None:
        dist = distances_to(graph, target, edge_cost)
    return dist.get(source, UNREACHABLE)


def enumerate_paths(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    max_cost: int,
    dist: Optional[Dict[Node, int]] = None,
    max_paths: int = 10000,
    edge_cost: EdgeCost = unit_cost,
    deadline: Optional[Deadline] = None,
    report: Optional[EnumerationReport] = None,
    check_every: int = 128,
) -> Iterator[Tuple[Edge, ...]]:
    """Yield every acyclic path from ``source`` to ``target`` with cost
    ≤ ``max_cost``, up to ``max_paths``.

    Paths are produced in a deterministic order (edge insertion order at
    each node); ranking happens downstream.

    When ``deadline`` is given it is polled every ``check_every`` node
    expansions; on expiry the generator stops cleanly with whatever it
    has yielded so far and marks ``report.deadline_expired``. Without a
    deadline the enumeration is exactly the historical behavior.
    """
    if report is None:
        report = EnumerationReport()
    if not graph.has_node(source) or not graph.has_node(target):
        return
    if deadline is not None and deadline.expired():
        report.deadline_expired = True
        return
    if dist is None:
        dist = distances_to(graph, target, edge_cost)
    if dist.get(source, UNREACHABLE) > max_cost:
        return

    produced = 0
    stopped = False
    path: List[Edge] = []
    on_path = {source}

    def dfs(node: Node, cost: int) -> Iterator[Tuple[Edge, ...]]:
        nonlocal produced, stopped
        if produced >= max_paths:
            report.path_cap_hit = True
            return
        if stopped:
            return
        report.expansions += 1
        if (
            deadline is not None
            and report.expansions % check_every == 0
            and deadline.expired()
        ):
            report.deadline_expired = True
            stopped = True
            return
        if node == target and path:
            produced += 1
            report.produced = produced
            yield tuple(path)
            # Continuing past the target would require a cycle back to it,
            # which acyclicity forbids; stop here.
            return
        for edge in graph.out_edges(node):
            if produced >= max_paths:
                report.path_cap_hit = True
                return
            if stopped:
                return
            nxt = edge.target
            if nxt in on_path:
                continue
            new_cost = cost + edge_cost(edge)
            remaining = dist.get(nxt, UNREACHABLE)
            if new_cost + remaining > max_cost:
                continue
            path.append(edge)
            on_path.add(nxt)
            yield from dfs(nxt, new_cost)
            on_path.discard(nxt)
            path.pop()

    yield from dfs(source, 0)


def shortest_path(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    dist: Optional[Dict[Node, int]] = None,
    edge_cost: EdgeCost = unit_cost,
) -> Optional[Tuple[Edge, ...]]:
    """One cheapest path from ``source`` to ``target``, or ``None``.

    Reconstructed greedily from the backward distance map: at each node
    follow the first edge that lies on *some* cheapest path (its cost
    plus the remaining distance equals the node's distance). Runs in
    O(path length × out-degree) — this is the degradation ladder's
    always-affordable bottom rung.
    """
    if not graph.has_node(source) or not graph.has_node(target):
        return None
    if dist is None:
        dist = distances_to(graph, target, edge_cost)
    if dist.get(source, UNREACHABLE) >= UNREACHABLE:
        return None
    node = source
    path: List[Edge] = []
    visited = {source}
    while node != target:
        here = dist.get(node, UNREACHABLE)
        for edge in graph.out_edges(node):
            if edge.target in visited:
                continue
            if edge_cost(edge) + dist.get(edge.target, UNREACHABLE) == here:
                path.append(edge)
                node = edge.target
                visited.add(node)
                break
        else:
            # Every optimal edge loops back (possible only through
            # zero-cost widening cycles); give up rather than spin.
            return None
    return tuple(path) if path else None


def count_paths(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    max_cost: int,
    max_paths: int = 10000,
    edge_cost: EdgeCost = unit_cost,
) -> int:
    """Number of acyclic paths within the bound (used by Figure 3's bench)."""
    return sum(
        1
        for _ in enumerate_paths(
            graph, source, target, max_cost, max_paths=max_paths, edge_cost=edge_cost
        )
    )


def reference_solve(
    graph: SignatureGraph,
    sources: Sequence[JavaType],
    target: JavaType,
    config: SearchConfig,
    cost_model: CostModel,
    verdicts=None,
) -> List[SearchResult]:
    """The ranked answer to an unbudgeted query, computed the plain way.

    For each distinct source: enumerate every path within
    ``m + extra_cost`` (capped by ``absolute_max_cost``), render each as
    a jungloid, keep the first of every ``(source, rendering)`` pair,
    and rank all sources' survivors together by
    :func:`~repro.search.ranking.viability_rank_key`, capped at
    ``max_results``. :meth:`~repro.search.GraphSearch.solve_multi` must
    return exactly this list.
    """
    if not graph.has_node(target):
        return []

    def edge_cost(edge: Edge) -> int:
        return cost_model.step_total(edge.elementary)

    if not config.analysis_ranking:
        verdicts = None
    ranked = []
    seen = set()
    for source in dict.fromkeys(sources):
        if not graph.has_node(source):
            continue
        dist = distances_to(graph, target, edge_cost)
        m = dist.get(source, UNREACHABLE)
        if m >= UNREACHABLE:
            continue
        bound = min(m + config.extra_cost, config.absolute_max_cost)
        for path in enumerate_paths(
            graph,
            source,
            target,
            bound,
            dist=dist,
            max_paths=config.max_paths_per_source,
            edge_cost=edge_cost,
        ):
            jungloid = SignatureGraph.path_to_jungloid(path)
            text = jungloid.render_expression("x")
            if (source, text) in seen:
                continue
            seen.add((source, text))
            key = viability_rank_key(graph.registry, jungloid, verdicts, cost_model)
            ranked.append((key, SearchResult(jungloid, source)))
    ranked.sort(key=itemgetter(0))
    return [result for _, result in ranked[: config.max_results]]
