"""Tests for batch query serving (``GraphSearch.solve_batch``).

Covers the three batch-layer claims: target-grouping shares one distance
map per distinct target (asserted via the engine's ``distance_computes``
counting hook), per-query results equal one-at-a-time serving (dedup
across sources included), and a fault while answering one query degrades
only that query.
"""

from repro.graph import SignatureGraph
from repro.robustness import (
    FlakyClock,
    InjectedFault,
    ManualClock,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
)
from repro.search import BatchQuery, GraphSearch, SearchConfig
from repro.search import engine as engine_module
from repro.typesystem import VOID, named


def _graph(small_registry):
    return SignatureGraph.from_registry(small_registry)


def _texts(outcome):
    return [r.jungloid.render_expression("x") for r in outcome.results]


IN_STREAM = named("demo.io.InputStream")
BUF_READER = named("demo.io.BufferedReader")
STRING = named("java.lang.String")
STR_READER = named("demo.io.StringReader")
PANEL = named("demo.ui.Panel")
SELECTION = named("demo.ui.ISelection")


class TestBatchResults:
    def test_matches_one_at_a_time(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        queries = [
            (IN_STREAM, BUF_READER),
            (STRING, STR_READER),
            (PANEL, SELECTION),
        ]
        outcomes = search.solve_batch(queries)
        assert len(outcomes) == 3
        for (t_in, t_out), outcome in zip(queries, outcomes):
            expected = search.solve_multi_outcome([t_in], t_out)
            assert _texts(outcome) == _texts(expected)
            assert not outcome.degraded

    def test_outcomes_in_input_order_with_interleaved_targets(
        self, small_registry
    ):
        search = GraphSearch(_graph(small_registry))
        queries = [
            (IN_STREAM, BUF_READER),
            (PANEL, SELECTION),
            (STRING, BUF_READER),
            (VOID, SELECTION),
        ]
        outcomes = search.solve_batch(queries)
        for (t_in, t_out), outcome in zip(queries, outcomes):
            assert _texts(outcome) == _texts(
                search.solve_multi_outcome([t_in], t_out)
            ), f"({t_in}, {t_out}) out of order or diverged"

    def test_unknown_target_is_empty_but_not_degraded(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        outcomes = search.solve_batch(
            [(IN_STREAM, named("no.Such")), (IN_STREAM, BUF_READER)]
        )
        assert outcomes[0].results == ()
        assert not outcomes[0].degraded
        assert outcomes[1].results

    def test_multi_source_dedup_preserved(self, small_registry):
        """A jungloid reachable from two sources appears once per source,
        and duplicate sources collapse — exactly as in solve_multi."""
        search = GraphSearch(_graph(small_registry))
        sources = (IN_STREAM, IN_STREAM, VOID)
        [outcome] = search.solve_batch([BatchQuery(sources, BUF_READER)])
        expected = search.solve_multi_outcome(sources, BUF_READER)
        assert _texts(outcome) == _texts(expected)
        pairs = [
            (r.source_type, r.jungloid.render_expression("x"))
            for r in outcome.results
        ]
        assert len(pairs) == len(set(pairs))  # no (source, text) dupes

    def test_batch_query_coercions(self, small_registry):
        assert BatchQuery.of((IN_STREAM, BUF_READER)) == BatchQuery(
            (IN_STREAM,), BUF_READER
        )
        assert BatchQuery.of(([IN_STREAM, VOID], BUF_READER)) == BatchQuery(
            (IN_STREAM, VOID), BUF_READER
        )
        q = BatchQuery((VOID,), BUF_READER)
        assert BatchQuery.of(q) is q


class TestDistanceSharing:
    def test_one_dijkstra_per_distinct_target(self, small_registry):
        # Cache disabled: any sharing must come from target-grouping.
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(max_cached_targets=0),
        )
        queries = [
            (IN_STREAM, BUF_READER),
            (PANEL, SELECTION),
            (STRING, BUF_READER),
            (VOID, SELECTION),
            (STRING, STR_READER),
        ]
        search.solve_batch(queries)
        assert search.distance_computes == 3  # BUF_READER, SELECTION, STR_READER

    def test_one_at_a_time_pays_per_query_without_cache(self, small_registry):
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(max_cached_targets=0),
        )
        for t_in, t_out in [
            (IN_STREAM, BUF_READER),
            (STRING, BUF_READER),
            (VOID, BUF_READER),
        ]:
            search.solve_multi_outcome([t_in], t_out)
        assert search.distance_computes == 3  # same target, paid thrice

    def test_lru_cache_extends_sharing_across_batches(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        search.solve_batch([(IN_STREAM, BUF_READER)])
        search.solve_batch([(STRING, BUF_READER)])
        assert search.distance_computes == 1


class TestFaultIsolation:
    def test_faulting_query_degrades_only_itself(self, small_registry):
        # Each query mints its own deadline (reading #1) and the
        # full-window rung polls once up front (#2), then per expansion:
        # reading #3 faults the first query's first expansion. The clock
        # raises once, so the second query runs clean.
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(deadline_check_every=1),
            clock=FlakyClock(fail_on=3),
        )
        bad, good = search.solve_batch(
            [(IN_STREAM, BUF_READER), (PANEL, SELECTION)], time_budget_ms=60_000.0
        )
        assert search._compiled is not None  # the fault hit the kernel
        assert bad.degraded
        assert [(r.code, r.rung) for r in bad.reasons] == [
            (REASON_FAULT, RUNG_FULL_WINDOW)
        ]
        assert bad.results  # the zero-extra rung recovered
        assert not good.degraded
        assert good.results
        assert _texts(good) == _texts(
            GraphSearch(_graph(small_registry)).solve_multi_outcome(
                [PANEL], SELECTION
            )
        )

    def test_faulting_dijkstra_cuts_off_only_its_target_group(
        self, small_registry, monkeypatch
    ):
        # Fail the distance map of one target: its whole group faults at
        # the distance-map stage; other targets are untouched.
        real = engine_module.distances_for

        def poisoned(compiled, target):
            if target == BUF_READER:
                raise InjectedFault(f"poisoned distance map of {target}")
            return real(compiled, target)

        monkeypatch.setattr(engine_module, "distances_for", poisoned)
        search = GraphSearch(_graph(small_registry))
        bad1, good, bad2 = search.solve_batch(
            [
                (IN_STREAM, BUF_READER),
                (PANEL, SELECTION),
                (STRING, BUF_READER),
            ]
        )
        assert search._compiled is not None
        for bad in (bad1, bad2):
            assert bad.degraded
            assert bad.results == ()
            assert any(r.code == REASON_FAULT for r in bad.reasons)
        assert not good.degraded
        assert good.results


class TestBatchDeadlines:
    def test_budget_minted_per_query(self, small_registry):
        # A ManualClock that expires any deadline on its first poll: each
        # query still gets its own deadline, so each degrades separately
        # (rather than the first query consuming the whole budget).
        clock = ManualClock(tick=0.010)
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(deadline_check_every=1),
            clock=clock,
        )
        outcomes = search.solve_batch(
            [(IN_STREAM, BUF_READER), (PANEL, SELECTION)],
            time_budget_ms=1.0,
        )
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.degraded
            assert any(r.code == REASON_DEADLINE for r in outcome.reasons)
            # Rung 3 (greedy shortest path) still salvages an answer.
            assert outcome.results

    def test_no_budget_means_no_degradation(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        outcomes = search.solve_batch([(IN_STREAM, BUF_READER)])
        assert not outcomes[0].degraded
        assert outcomes[0].elapsed_ms is None
