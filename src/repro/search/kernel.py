"""The search kernel: a CSR-lowered graph and iterative search.

This is the one engine :class:`~repro.search.GraphSearch` runs. The live
:class:`~repro.graph.SignatureGraph` is a dict-of-list multigraph; walking
it with a recursive generator, calling the cost model on every edge and
hashing full type objects at every step, is the right shape for
explaining the algorithm (:mod:`repro.search.paths` keeps that shape as
the reference oracle the tests and ``bench-search`` compare against) but
the wrong shape for serving: Section 5 promises interactive answers.

This module lowers the graph once per :attr:`~repro.graph.SignatureGraph.revision`
into a flat snapshot:

* every node is interned to a dense integer id (insertion order, so the
  lowering is deterministic for a given build sequence);
* out- and in-adjacency become contiguous parallel lists in CSR form
  (``out_start[u] .. out_start[u+1]`` indexes the edges leaving ``u``);
* the cost model is evaluated **once per edge at compile time**, so the
  hot loops compare precomputed integers instead of calling back into
  Python per expansion;
* the ranking heuristic's per-step parts
  (:func:`~repro.search.ranking.step_rank_parts`) get one slot per edge,
  filled by the engine on first touch rather than at compile time, so a
  path's rank key is a sum over its slots.

On top of the snapshot, the backward Dijkstra and the bounded acyclic
path enumeration run as iterative loops (explicit stack). The
enumeration mirrors the oracle's recursion *exactly* — the same entry
checks in the same order, the same per-edge checks, the same deadline
polling cadence against ``EnumerationReport.expansions`` — so it yields
the same paths in the same order, including under deadline truncation
with a :class:`~repro.robustness.ManualClock`. The differential tests in
``tests/test_search_kernel.py`` pin that down. Paths come out as tuples
of CSR slots; :meth:`CompiledGraph.edges` maps them back to edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..graph import Edge, Node, SignatureGraph
from ..robustness import Deadline

#: Effectively-infinite distance for unreachable nodes.
UNREACHABLE = 1 << 30

#: An edge-cost function; the default charges 1 per non-widening edge.
EdgeCost = Callable[[Edge], int]


@dataclass
class EnumerationReport:
    """How a path enumeration ended (filled in by the callee).

    Generators cannot return status alongside yielded values, so callers
    that need to know *why* enumeration stopped pass one of these in.
    """

    #: Paths actually yielded.
    produced: int = 0
    #: Node expansions performed by the DFS (counted whether or not a
    #: deadline is set, so perf reports are meaningful without a budget).
    expansions: int = 0
    #: True when a deadline cut the enumeration short (results partial).
    deadline_expired: bool = False
    #: True when the ``max_paths`` cap stopped the enumeration.
    path_cap_hit: bool = False

    @property
    def truncated(self) -> bool:
        return self.deadline_expired or self.path_cap_hit


def unit_cost(edge: Edge) -> int:
    """The plain length metric: widening free, everything else 1."""
    return edge.search_length


class CompiledGraph:
    """A CSR snapshot of a signature/jungloid graph.

    ``out_edges_ref[i]`` is the live :class:`~repro.graph.Edge` object for
    CSR slot ``i``, so a slot path maps back to the *same* edge objects
    the oracle enumeration yields.

    The topology is immutable. ``rank_parts`` is the one mutable part: a
    per-slot cache of :func:`~repro.search.ranking.step_rank_parts`,
    ``None`` until the engine first ranks a path, and tied to the verdict
    index ``rank_verdicts`` its demotions were derived from.
    """

    __slots__ = (
        "revision",
        "nodes",
        "node_id",
        "out_start",
        "out_target",
        "out_cost",
        "out_edges_ref",
        "in_start",
        "in_source",
        "in_cost",
        "rank_parts",
        "rank_verdicts",
    )

    def __init__(
        self,
        revision: int,
        nodes: Tuple[Node, ...],
        node_id: Dict[Node, int],
        out_start: List[int],
        out_target: List[int],
        out_cost: List[int],
        out_edges_ref: Tuple[Edge, ...],
        in_start: List[int],
        in_source: List[int],
        in_cost: List[int],
    ):
        self.revision = revision
        self.nodes = nodes
        self.node_id = node_id
        self.out_start = out_start
        self.out_target = out_target
        self.out_cost = out_cost
        self.out_edges_ref = out_edges_ref
        self.in_start = in_start
        self.in_source = in_source
        self.in_cost = in_cost
        self.rank_parts: Optional[list] = None
        self.rank_verdicts = None

    def edges(self, slots: Tuple[int, ...]) -> Tuple[Edge, ...]:
        """The edge objects of a slot path."""
        refs = self.out_edges_ref
        return tuple(refs[i] for i in slots)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.out_edges_ref)


def compile_graph(
    graph: SignatureGraph, edge_cost: EdgeCost = unit_cost
) -> CompiledGraph:
    """Lower ``graph`` into a :class:`CompiledGraph` snapshot.

    ``edge_cost`` is evaluated exactly once per edge, here; the search
    loops never call it again. The snapshot records ``graph.revision`` so
    callers can detect staleness after mined paths are grafted in.
    """
    nodes = graph.node_order()
    node_id = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    out_start: List[int] = [0] * (n + 1)
    out_target: List[int] = []
    out_cost: List[int] = []
    out_edges_ref: List[Edge] = []
    # Per-edge in-adjacency, bucketed then flattened to CSR.
    in_buckets: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    for uid, node in enumerate(nodes):
        for edge in graph.out_edges(node):
            vid = node_id[edge.target]
            cost = edge_cost(edge)
            out_target.append(vid)
            out_cost.append(cost)
            out_edges_ref.append(edge)
            in_buckets[vid].append((uid, cost))
        out_start[uid + 1] = len(out_target)

    in_start: List[int] = [0] * (n + 1)
    in_source: List[int] = []
    in_cost: List[int] = []
    for vid in range(n):
        for uid, cost in in_buckets[vid]:
            in_source.append(uid)
            in_cost.append(cost)
        in_start[vid + 1] = len(in_source)

    return CompiledGraph(
        revision=graph.revision,
        nodes=nodes,
        node_id=node_id,
        out_start=out_start,
        out_target=out_target,
        out_cost=out_cost,
        out_edges_ref=tuple(out_edges_ref),
        in_start=in_start,
        in_source=in_source,
        in_cost=in_cost,
    )


class KernelDistances:
    """A distance map backed by the kernel's flat integer array.

    Quacks like the ``Dict[Node, int]`` the oracle's Dijkstra produces —
    ``get(node, default)`` returns ``default`` for unknown or unreachable
    nodes — while the kernel loops index :attr:`arr` directly.
    """

    __slots__ = ("compiled", "target", "arr")

    def __init__(self, compiled: CompiledGraph, target: Node, arr: List[int]):
        self.compiled = compiled
        self.target = target
        self.arr = arr

    def get(self, node: Node, default=None):
        nid = self.compiled.node_id.get(node)
        if nid is None:
            return default
        value = self.arr[nid]
        return value if value < UNREACHABLE else default

    def __getitem__(self, node: Node) -> int:
        value = self.get(node)
        if value is None:
            raise KeyError(node)
        return value

    def __contains__(self, node: Node) -> bool:
        return self.get(node) is not None


def kernel_distances(compiled: CompiledGraph, target_id: int) -> List[int]:
    """Backward Dijkstra over the CSR in-adjacency, all in integers.

    Returns a dense array: ``dist[u]`` is the minimum cost from node ``u``
    to the target, :data:`UNREACHABLE` when no path exists. Values equal
    the oracle :func:`~repro.search.paths.distances_to` exactly (same
    edge costs, and Dijkstra's answer is pop-order independent).
    """
    n = len(compiled.nodes)
    dist = [UNREACHABLE] * n
    dist[target_id] = 0
    in_start = compiled.in_start
    in_source = compiled.in_source
    in_cost = compiled.in_cost
    heap: List[Tuple[int, int]] = [(0, target_id)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for i in range(in_start[node], in_start[node + 1]):
            nd = d + in_cost[i]
            src = in_source[i]
            if nd < dist[src]:
                dist[src] = nd
                push(heap, (nd, src))
    return dist


def distances_for(compiled: CompiledGraph, target: Node) -> Optional[KernelDistances]:
    """Distance map to ``target``, or ``None`` when it is not a node."""
    tid = compiled.node_id.get(target)
    if tid is None:
        return None
    return KernelDistances(compiled, target, kernel_distances(compiled, tid))


def kernel_enumerate_paths(
    compiled: CompiledGraph,
    source: Node,
    target: Node,
    max_cost: int,
    dist: Optional[KernelDistances] = None,
    max_paths: int = 10000,
    deadline: Optional[Deadline] = None,
    report: Optional[EnumerationReport] = None,
    check_every: int = 128,
) -> Iterator[Tuple[int, ...]]:
    """Iterative twin of :func:`repro.search.paths.enumerate_paths`.

    Yields the same paths, as CSR slot tuples, in the same order, with
    the same :class:`EnumerationReport` accounting (expansions counted
    per node entry, deadline polled every ``check_every`` expansions,
    ``max_paths`` cap flagged at the same points) — the recursion is
    unrolled onto an explicit frame stack, nothing else changes.
    """
    if report is None:
        report = EnumerationReport()
    node_id = compiled.node_id
    sid = node_id.get(source)
    tid = node_id.get(target)
    if sid is None or tid is None:
        return
    if deadline is not None and deadline.expired():
        report.deadline_expired = True
        return
    if dist is None:
        dist = KernelDistances(compiled, target, kernel_distances(compiled, tid))
    arr = dist.arr
    if arr[sid] > max_cost:
        return

    out_start = compiled.out_start
    out_target = compiled.out_target
    out_cost = compiled.out_cost

    produced = 0
    stopped = False
    on_path = bytearray(len(compiled.nodes))
    on_path[sid] = 1
    path: List[int] = []  # CSR edge indices of the current prefix
    # A frame is [node_id, cost_so_far, next_edge_index]; -1 marks a
    # freshly pushed frame whose entry checks have not run yet.
    frames: List[List[int]] = [[sid, 0, -1]]

    def leave() -> None:
        # Return from the current frame: undo the edge that entered it
        # (the root frame was not entered through an edge).
        frame = frames.pop()
        if frames:
            on_path[frame[0]] = 0
            path.pop()

    while frames:
        frame = frames[-1]
        node = frame[0]
        ei = frame[2]
        if ei < 0:
            # Entry checks, in the oracle recursion's order.
            if produced >= max_paths:
                report.path_cap_hit = True
                leave()
                continue
            if stopped:
                leave()
                continue
            report.expansions += 1
            if (
                deadline is not None
                and report.expansions % check_every == 0
                and deadline.expired()
            ):
                report.deadline_expired = True
                stopped = True
                leave()
                continue
            if node == tid and path:
                produced += 1
                report.produced = produced
                yield tuple(path)
                # Continuing past the target would need a cycle; stop.
                leave()
                continue
            frame[2] = out_start[node]
            continue
        if ei >= out_start[node + 1]:
            leave()  # out-edge loop exhausted
            continue
        # Per-edge loop body, in the oracle recursion's order.
        if produced >= max_paths:
            report.path_cap_hit = True
            leave()
            continue
        if stopped:
            leave()
            continue
        frame[2] = ei + 1
        nxt = out_target[ei]
        if on_path[nxt]:
            continue
        new_cost = frame[1] + out_cost[ei]
        if new_cost + arr[nxt] > max_cost:
            continue
        path.append(ei)
        on_path[nxt] = 1
        frames.append([nxt, new_cost, -1])


def kernel_shortest_path(
    compiled: CompiledGraph,
    source: Node,
    target: Node,
    dist: Optional[KernelDistances] = None,
) -> Optional[Tuple[int, ...]]:
    """Iterative twin of :func:`repro.search.paths.shortest_path`, as slots."""
    node_id = compiled.node_id
    sid = node_id.get(source)
    tid = node_id.get(target)
    if sid is None or tid is None:
        return None
    if dist is None:
        dist = KernelDistances(compiled, target, kernel_distances(compiled, tid))
    arr = dist.arr
    if arr[sid] >= UNREACHABLE:
        return None
    out_start = compiled.out_start
    out_target = compiled.out_target
    out_cost = compiled.out_cost
    node = sid
    path: List[int] = []
    visited = bytearray(len(compiled.nodes))
    visited[sid] = 1
    while node != tid:
        here = arr[node]
        for i in range(out_start[node], out_start[node + 1]):
            nxt = out_target[i]
            if visited[nxt]:
                continue
            if out_cost[i] + arr[nxt] == here:
                path.append(i)
                node = nxt
                visited[nxt] = 1
                break
        else:
            # Every optimal edge loops back (zero-cost widening cycles);
            # give up rather than spin — mirrors the oracle.
            return None
    return tuple(path) if path else None
