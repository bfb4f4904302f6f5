"""Robustness tests for the search engine: deadlines, the degradation
ladder, fault isolation, and the distance-cache staleness fix."""

from dataclasses import dataclass

import pytest

from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import CostModel, Jungloid, downcast
from repro.robustness import (
    DEGRADATION_LADDER,
    Deadline,
    FlakyClock,
    InjectedFault,
    ManualClock,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
)
from repro.search import (
    EnumerationReport,
    GraphSearch,
    SearchConfig,
    compile_graph,
    distances_to,
    enumerate_paths,
    kernel_enumerate_paths,
    shortest_path,
)


def _sig_graph(registry):
    return SignatureGraph.from_registry(registry)


def _types(registry, *names):
    return tuple(registry.lookup(n) for n in names)


class TestEnumerationDeadline:
    def test_expired_deadline_yields_nothing_and_reports(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)  # expired on first poll
        report = EnumerationReport()
        paths = list(
            enumerate_paths(graph, src, dst, 5, deadline=deadline, report=report)
        )
        assert paths == []
        assert report.deadline_expired
        assert report.truncated

    def test_no_deadline_reports_clean_completion(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        report = EnumerationReport()
        paths = list(enumerate_paths(graph, src, dst, 5, report=report))
        assert paths
        assert not report.deadline_expired

    def test_path_cap_is_reported(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.ui.Panel", "demo.ui.Item")
        unbounded = list(enumerate_paths(graph, src, dst, 6))
        assert len(unbounded) >= 2
        report = EnumerationReport()
        capped = list(enumerate_paths(graph, src, dst, 6, max_paths=1, report=report))
        assert len(capped) == 1
        assert report.path_cap_hit


class TestShortestPath:
    def test_reconstructs_a_cheapest_path(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        dist = distances_to(graph, dst)
        path = shortest_path(graph, src, dst, dist=dist)
        assert path is not None
        assert path[0].source == src and path[-1].target == dst
        cost = sum(e.search_length for e in path)
        assert cost == dist[src]

    def test_unreachable_returns_none(self, small_registry):
        graph = _sig_graph(small_registry)
        sel, item = _types(small_registry, "demo.ui.ISelection", "demo.ui.Item")
        assert shortest_path(graph, sel, item) is None


class TestDeadlineDegradation:
    def test_expired_budget_still_returns_ranked_results(self, standard_prospector):
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", deadline=deadline
        )
        assert outcome.degraded
        assert outcome.reason is not None
        assert outcome.reason.code == REASON_DEADLINE
        assert len(outcome.results) >= 1
        # Ranked, best-first, and the shortest-path rung still finds the
        # paper's canonical answer.
        assert [r.rank for r in outcome.results] == list(
            range(1, len(outcome.results) + 1)
        )
        assert (
            outcome.results[0].inline("x")
            == "new java.io.BufferedReader(new java.io.InputStreamReader(x))"
        )

    def test_ladder_rungs_run_in_order(self, standard_prospector):
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", deadline=deadline
        )
        assert outcome.rungs == DEGRADATION_LADDER
        assert outcome.rungs == (
            RUNG_FULL_WINDOW,
            RUNG_ZERO_EXTRA,
            RUNG_SHORTEST_PATH,
        )

    def test_unbudgeted_outcome_identical_to_solve_multi(self, standard_prospector):
        plain = standard_prospector.query(
            "java.io.InputStream", "java.io.BufferedReader"
        )
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader"
        )
        assert not outcome.degraded
        assert outcome.reasons == ()
        assert outcome.rungs == (RUNG_FULL_WINDOW,)
        assert [r.inline("x") for r in outcome.results] == [
            r.inline("x") for r in plain
        ]
        assert [r.rank for r in outcome.results] == [r.rank for r in plain]

    def test_generous_budget_is_not_degraded(self, standard_prospector):
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", time_budget_ms=60_000.0
        )
        assert not outcome.degraded
        assert outcome.elapsed_ms is not None

    def test_config_budget_engages_without_explicit_deadline(self, small_registry):
        graph = _sig_graph(small_registry)
        clock = ManualClock(tick=0.010)
        engine = GraphSearch(
            graph, config=SearchConfig(time_budget_ms=1.0), clock=clock
        )
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        outcome = engine.solve_multi_outcome([src], dst)
        assert outcome.degraded
        assert len(outcome.results) >= 1


@dataclass(frozen=True)
class _PoisonedCostModel(CostModel):
    """Raises while weighing one edge, so compiling the graph fails."""

    def step_total(self, step) -> int:
        if step.output_type.name.dotted == "demo.io.InputStreamReader":
            raise InjectedFault("poisoned edge weight")
        return super().step_total(step)


def _flaky_engine(graph, fail_on):
    """The production engine on a clock that faults at one reading.

    Every deadline poll reads the clock, and polls happen at every
    expansion, so reading #1 is the query's ``Deadline.after``, #2 the
    full-window rung's up-front poll and #k (k > 2) its expansion k-2.
    """
    return GraphSearch(
        graph,
        config=SearchConfig(time_budget_ms=60_000.0, deadline_check_every=1),
        clock=FlakyClock(fail_on),
    )


def _full_window_readings(search, source, target):
    """Clock readings one source's full-window rung takes, fault-free."""
    dist = search._distances(target)
    report = EnumerationReport()
    bound = dist[source] + search.config.extra_cost
    list(kernel_enumerate_paths(dist.compiled, source, target, bound, dist=dist, report=report))
    return 1 + report.expansions


def _texts(results):
    return [r.jungloid.render_expression("x") for r in results]


class TestFaultIsolation:
    def test_clock_fault_degrades_instead_of_raising(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        # Reading #3: the full-window rung's first expansion, before it
        # has produced any path.
        engine = _flaky_engine(graph, fail_on=3)
        outcome = engine.solve_multi_outcome([src], dst)  # must not raise
        assert engine._compiled is not None  # the fault hit the kernel
        assert outcome.degraded
        assert [(r.code, r.rung) for r in outcome.reasons] == [
            (REASON_FAULT, RUNG_FULL_WINDOW)
        ]
        # The fault fires once, so the zero-extra rung recovers and
        # answers with exactly the m-window's paths.
        assert outcome.rungs == (RUNG_FULL_WINDOW, RUNG_ZERO_EXTRA)
        zero_extra = GraphSearch(graph, config=SearchConfig(extra_cost=0))
        assert _texts(outcome.results) == _texts(zero_extra.solve_multi([src], dst))
        assert outcome.results

    def test_flaky_clock_raises_through_kernel_enumerator(self, small_registry):
        # The fault hook itself works: undegraded call sites see the error.
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        deadline = Deadline.after(60_000.0, FlakyClock(fail_on=3))
        with pytest.raises(InjectedFault):
            list(
                kernel_enumerate_paths(
                    compile_graph(graph), src, dst, 5, deadline=deadline, check_every=1
                )
            )

    def test_fault_in_one_source_spares_the_others(self, small_registry):
        graph = _sig_graph(small_registry)
        src1, src2, dst = _types(
            small_registry,
            "demo.io.InputStream",
            "java.lang.String",
            "demo.io.BufferedReader",
        )
        healthy = GraphSearch(graph).solve_multi([src1, src2], dst)
        # Past the deadline's reading and the first source's whole walk,
        # then the second source's up-front poll: the fault lands on the
        # second source's first expansion.
        fail_on = 1 + _full_window_readings(GraphSearch(graph), src1, dst) + 2
        engine = _flaky_engine(graph, fail_on)
        outcome = engine.solve_multi_outcome([src1, src2], dst)
        assert engine._compiled is not None
        assert outcome.degraded
        assert [(r.code, r.rung) for r in outcome.reasons] == [
            (REASON_FAULT, RUNG_FULL_WINDOW)
        ]
        assert outcome.reasons[0].detail.startswith(f"{src2}:")
        # The first source is untouched; the second recovers on the
        # zero-extra rung with a subset of its healthy answers.
        def by_source(results, source):
            return _texts(r for r in results if r.source_type == source)

        assert by_source(outcome.results, src1) == by_source(healthy, src1)
        assert by_source(outcome.results, src2)
        assert set(by_source(outcome.results, src2)) <= set(by_source(healthy, src2))

    def test_compile_failure_degrades_single_and_batch_queries(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        engine = GraphSearch(graph, cost_model=_PoisonedCostModel())
        single = engine.solve_multi_outcome([src], dst)  # must not raise
        (batched,) = engine.solve_batch([(src, dst)])
        for outcome in (single, batched):
            assert outcome.degraded
            assert outcome.results == ()
            assert [r.code for r in outcome.reasons] == [REASON_FAULT]
            assert "poisoned edge weight" in outcome.reasons[0].detail


class TestDistanceCacheInvalidation:
    def test_cache_refreshes_after_graph_mutation(self, small_registry):
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        # Prime the distance cache: no downcast edges, so unreachable.
        assert search.shortest_cost(sel, item) is None
        # Graft a mined typestate path (as mining/graft.py does).
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        # The stale cache said "unreachable"; the revision bump must
        # invalidate it so the new edge is visible.
        assert search.shortest_cost(sel, item) is not None

    def test_revision_counts_edge_insertions(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        before = graph.revision
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        assert graph.revision > before

    def test_unmutated_graph_reuses_cache(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        dst = small_registry.lookup("demo.io.BufferedReader")
        first = search._distances(dst)
        assert search._distances(dst) is first
