"""Differential tests for the compiled search kernel.

The kernel (CSR lowering + iterative loops) must be byte-identical to
the reference implementation in ``paths.py``: same jungloids, same
order, same degradation outcomes — including runs a deadline truncates
partway through. Every test here runs both backends on the same input
and compares outputs structurally.
"""

from repro.eval import TABLE1_PROBLEMS
from repro.eval.perf import build_stress_graph
from repro.core import CursorContext
from repro.core.query import Query
from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import Jungloid, downcast
from repro.robustness import Deadline, FlakyGraph, ManualClock
from repro.search import (
    CompiledGraph,
    EnumerationReport,
    GraphSearch,
    KernelDistances,
    SearchConfig,
    compile_graph,
    distances_for,
    distances_to,
    enumerate_paths,
    kernel_enumerate_paths,
    kernel_shortest_path,
    shortest_path,
    viability_rank_key,
)
from repro.typesystem import VOID, named


def _pair(graph, **overrides):
    """A (reference, kernel) engine pair over the same graph."""
    ref = GraphSearch(graph, config=SearchConfig(use_kernel=False, **overrides))
    ker = GraphSearch(graph, config=SearchConfig(use_kernel=True, **overrides))
    return ref, ker


def _texts(outcome):
    return [r.jungloid.render_expression("x") for r in outcome.results]


def _keyed(search, sources, target):
    """The engine's ranked candidates with the keys it sorted them by."""
    ranked, _, _ = search._ranked_candidates(
        sources, target, None, search._distances(target)
    )
    return ranked


def _public_key(search, jungloid):
    """:func:`viability_rank_key` flattened to the engine's key order."""
    key = viability_rank_key(
        search.graph.registry, jungloid, search.verdicts, search.cost_model
    )
    base = key.base
    return (key.demotion, base.cost, base.crossings, base.generality, base.text)


#: Completion contexts: (target, visible variables).
CONTEXTS = [
    ("java.io.BufferedReader", [("in", "java.io.InputStream"), ("f", "java.io.File")]),
    ("org.eclipse.jdt.core.dom.ASTNode", [("sel", "org.eclipse.jface.viewers.ISelection")]),
    (
        "org.eclipse.ui.part.EditorPart",
        [("a", "org.eclipse.ui.texteditor.AbstractTextEditor"), ("b", "org.eclipse.swt.widgets.Tree")],
    ),
]


def _standard_requests(prospector):
    """(sources, target) for the 20 Table-1 queries and the contexts."""
    registry = prospector.registry
    requests = []
    for problem in TABLE1_PROBLEMS:
        q = Query.of(registry, problem.t_in, problem.t_out)
        requests.append(([q.t_in], q.t_out))
    for target, visible in CONTEXTS:
        context = CursorContext.at_assignment(registry, target, visible=visible)
        requests.append((context.source_types(), context.target_type))
    return requests


class TestCompiledGraph:
    def test_csr_shape_invariants(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        n = compiled.node_count
        assert n == graph.node_count()
        assert compiled.edge_count == graph.edge_count()
        assert len(compiled.out_start) == n + 1
        assert len(compiled.in_start) == n + 1
        assert compiled.out_start[0] == 0 and compiled.in_start[0] == 0
        assert compiled.out_start[-1] == compiled.edge_count
        assert compiled.in_start[-1] == compiled.edge_count
        assert all(
            compiled.out_start[i] <= compiled.out_start[i + 1] for i in range(n)
        )
        # node_id is the inverse of nodes.
        for i, node in enumerate(compiled.nodes):
            assert compiled.node_id[node] == i

    def test_out_adjacency_matches_graph(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for node in graph.nodes:
            u = compiled.node_id[node]
            lo, hi = compiled.out_start[u], compiled.out_start[u + 1]
            csr_edges = [compiled.out_edges_ref[i] for i in range(lo, hi)]
            assert csr_edges == list(graph.out_edges(node))

    def test_records_revision(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        compiled = compile_graph(graph)
        assert compiled.revision == graph.revision


class TestKernelDistances:
    def test_matches_reference_for_every_node(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for target in graph.nodes:
            ref = distances_to(graph, target)
            ker = distances_for(compiled, target)
            for node in graph.nodes:
                assert ker.get(node, None) == ref.get(node, None), (
                    f"distance to {target} from {node} diverges"
                )

    def test_unknown_node_gets_default(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        dist = distances_for(compiled, named("demo.io.BufferedReader"))
        assert dist.get(named("no.Such"), "fallback") == "fallback"
        assert named("no.Such") not in dist


class TestEnumerationParity:
    def _both(self, graph, src, dst, bound, **kw):
        ref_report = EnumerationReport()
        ker_report = EnumerationReport()
        compiled = compile_graph(graph)
        ref = list(
            enumerate_paths(graph, src, dst, bound, report=ref_report, **kw)
        )
        ker = [
            compiled.edges(slots)
            for slots in kernel_enumerate_paths(
                compiled, src, dst, bound, report=ker_report, **kw
            )
        ]
        return ref, ker, ref_report, ker_report

    def test_same_paths_same_order(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        ref, ker, ref_rep, ker_rep = self._both(graph, src, dst, 5)
        assert ref == ker  # identical edge tuples, identical order
        assert ref
        assert ref_rep.produced == ker_rep.produced
        assert ref_rep.expansions == ker_rep.expansions

    def test_max_paths_cap_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        ref, ker, ref_rep, ker_rep = self._both(graph, src, dst, 6, max_paths=1)
        assert ref == ker
        assert len(ker) == 1
        assert ref_rep.path_cap_hit and ker_rep.path_cap_hit

    def test_deadline_truncation_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        # Each backend gets its own clock; both implementations read the
        # clock in the same sequence, so truncation lands identically.
        ref_rep, ker_rep = EnumerationReport(), EnumerationReport()
        compiled = compile_graph(graph)
        ref = list(
            enumerate_paths(
                graph, src, dst, 6,
                deadline=Deadline.after(25.0, ManualClock(tick=0.010)),
                report=ref_rep, check_every=1,
            )
        )
        ker = [
            compiled.edges(slots)
            for slots in kernel_enumerate_paths(
                compiled, src, dst, 6,
                deadline=Deadline.after(25.0, ManualClock(tick=0.010)),
                report=ker_rep, check_every=1,
            )
        ]
        assert ref == ker
        assert ref_rep.deadline_expired == ker_rep.deadline_expired
        assert ref_rep.expansions == ker_rep.expansions

    def test_shortest_path_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for src_name, dst_name in [
            ("demo.io.InputStream", "demo.io.BufferedReader"),
            ("java.lang.String", "demo.io.BufferedReader"),
            ("demo.ui.Panel", "demo.ui.ISelection"),
        ]:
            src, dst = named(src_name), named(dst_name)
            slots = kernel_shortest_path(compiled, src, dst)
            assert compiled.edges(slots) == shortest_path(graph, src, dst)

    def test_unreachable_shortest_path_is_none(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        assert (
            kernel_shortest_path(
                compiled,
                named("demo.io.BufferedReader"),
                named("demo.io.InputStream"),
            )
            is None
        )


class TestEngineDispatch:
    def test_kernel_engine_serves_kernel_distances(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        ref, ker = _pair(graph)
        dst = named("demo.io.BufferedReader")
        assert isinstance(ker._distances(dst), KernelDistances)
        assert isinstance(ref._distances(dst), dict)

    def test_proxied_graph_takes_reference_path(self, small_registry):
        graph = FlakyGraph(
            SignatureGraph.from_registry(small_registry), fail_after=10**9
        )
        search = GraphSearch(graph)  # use_kernel=True by default
        assert search._compiled_graph() is None
        assert isinstance(
            search._distances(named("demo.io.BufferedReader")), dict
        )

    def test_compile_invalidated_on_revision_bump(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        first = search._compiled_graph()
        assert isinstance(first, CompiledGraph)
        assert search._compiled_graph() is first  # cached within a revision
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        second = search._compiled_graph()
        assert second is not first
        assert second.revision == graph.revision
        # ... and the kernel sees the new edge.
        assert search.shortest_cost(sel, item) is not None


class TestDifferentialTable1:
    """The acceptance gate: byte-identical ranked output on Table 1."""

    def test_every_query_identical(self, standard_prospector):
        graph = standard_prospector.search.graph
        registry = standard_prospector.registry
        ref, ker = _pair(graph)
        for problem in TABLE1_PROBLEMS:
            q = Query.of(registry, problem.t_in, problem.t_out)
            a = ref.solve_multi_outcome([q.t_in], q.t_out)
            b = ker.solve_multi_outcome([q.t_in], q.t_out)
            assert _texts(a) == _texts(b), f"problem {problem.id} diverged"
            assert [r.source_type for r in a.results] == [
                r.source_type for r in b.results
            ]
            assert a.degraded == b.degraded == False  # noqa: E712
            assert a.reasons == b.reasons

    def test_deadline_truncated_queries_identical(self, standard_prospector):
        graph = standard_prospector.search.graph
        registry = standard_prospector.registry
        ref, ker = _pair(graph, deadline_check_every=1)
        for problem in TABLE1_PROBLEMS[:6]:
            q = Query.of(registry, problem.t_in, problem.t_out)
            a = ref.solve_multi_outcome(
                [q.t_in],
                q.t_out,
                deadline=Deadline.after(0.25, ManualClock(tick=0.010)),
            )
            b = ker.solve_multi_outcome(
                [q.t_in],
                q.t_out,
                deadline=Deadline.after(0.25, ManualClock(tick=0.010)),
            )
            assert _texts(a) == _texts(b), f"problem {problem.id} diverged"
            assert a.degraded == b.degraded
            assert [(r.code, r.rung) for r in a.reasons] == [
                (r.code, r.rung) for r in b.reasons
            ]
            assert a.rungs == b.rungs

    def test_kernel_flag_off_bypasses_kernel(self, standard_prospector):
        graph = standard_prospector.search.graph
        ref, _ = _pair(graph)
        ref.solve(named("java.io.InputStream"), named("java.io.BufferedReader"))
        assert ref._compiled is None


class TestKernelRankKeys:
    """The kernel sums per-slot rank parts; the sums must equal the
    public keys, which evaluate the same parts step by step."""

    def _assert_keys_match(self, search, sources, target):
        ranked = _keyed(search, sources, target)
        for key, result in ranked:
            assert key == _public_key(search, result.jungloid)
        return ranked

    def test_table1_and_completion_keys_equal_public_keys(self, standard_prospector):
        search = standard_prospector.search
        assert search.verdicts is not None
        answered = 0
        for sources, target in _standard_requests(standard_prospector):
            answered += bool(self._assert_keys_match(search, sources, target))
        assert answered >= 18 + len(CONTEXTS)  # 18 of 20 Table-1 queries answer

    def test_stress_graph_keys_equal_public_keys(self):
        _, graph = build_stress_graph()
        search = GraphSearch(graph)
        ranked = self._assert_keys_match(
            search, [named("stress.Source")], named("stress.Target")
        )
        assert len(ranked) == 16 * 16

    def test_demoted_and_widening_paths(self, small_prospector):
        registry = small_prospector.registry
        viewer = registry.lookup("demo.ui.Viewer")
        item = registry.lookup("demo.ui.Item")
        graph = JungloidGraph.build(registry)
        # An unrelated-class downcast: the verdict index calls it INVIABLE.
        graph.add_mined_path(Jungloid((downcast(viewer, item),)))
        search = GraphSearch(graph, verdicts=small_prospector.verdicts)
        ranked = self._assert_keys_match(
            search, [registry.lookup("demo.ui.Panel")], item
        )
        assert {key[0] for key, _ in ranked} == {0, 1}  # some demoted, some not
        # A pure widening chain ranks by the generality of its output.
        widening = self._assert_keys_match(
            search,
            [registry.lookup("demo.io.BufferedReader")],
            registry.lookup("demo.io.Reader"),
        )
        assert any(
            all(step.is_widening for step in result.jungloid.steps)
            for _, result in widening
        )

    def test_kernel_keys_equal_reference_keys(self, standard_prospector):
        ref, ker = _pair(standard_prospector.graph)
        ref.verdicts = ker.verdicts = standard_prospector.verdicts
        for sources, target in _standard_requests(standard_prospector):
            a = [(key, r.source_type) for key, r in _keyed(ref, sources, target)]
            b = [(key, r.source_type) for key, r in _keyed(ker, sources, target)]
            assert a == b, target

    def test_slot_parts_fill_lazily(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        search = GraphSearch(graph)
        compiled = search._compiled_graph()
        assert compiled.rank_parts is None  # compiling ranks nothing
        search.solve(named("demo.io.InputStream"), named("demo.io.BufferedReader"))
        filled = [p for p in compiled.rank_parts if p is not None]
        assert 0 < len(filled) < compiled.edge_count


class TestDifferentialRanked:
    """Ranked output, kernel vs reference, beyond single Table-1 queries."""

    def test_completion_contexts_identical(self, standard_prospector):
        ref, ker = _pair(standard_prospector.graph)
        registry = standard_prospector.registry
        for target, visible in CONTEXTS:
            context = CursorContext.at_assignment(registry, target, visible=visible)
            a = ref.solve_multi_outcome(context.source_types(), context.target_type)
            b = ker.solve_multi_outcome(context.source_types(), context.target_type)
            assert _texts(a) == _texts(b)
            assert [r.source_type for r in a.results] == [
                r.source_type for r in b.results
            ]
            assert VOID in {r.source_type for r in b.results}

    def test_deadline_truncated_completions_identical(self, standard_prospector):
        ref, ker = _pair(standard_prospector.graph, deadline_check_every=1)
        registry = standard_prospector.registry
        for target, visible in CONTEXTS:
            context = CursorContext.at_assignment(registry, target, visible=visible)
            outcomes = [
                engine.solve_multi_outcome(
                    context.source_types(),
                    context.target_type,
                    deadline=Deadline.after(0.25, ManualClock(tick=0.010)),
                )
                for engine in (ref, ker)
            ]
            a, b = outcomes
            assert a.degraded and b.degraded
            assert _texts(a) == _texts(b)
            assert a.rungs == b.rungs

    def test_stress_graph_identical(self):
        _, graph = build_stress_graph()
        ref, ker = _pair(graph)
        a = ref.solve_multi_outcome([named("stress.Source")], named("stress.Target"))
        b = ker.solve_multi_outcome([named("stress.Source")], named("stress.Target"))
        assert _texts(a) == _texts(b)
        assert len(b.results) == ker.config.max_results
