"""Tests for the Section-5 performance measurement helpers."""

from repro.eval import (
    measure_build_memory,
    measure_bundle,
    measure_load,
    measure_queries,
    run_perf,
)


class TestMeasurements:
    def test_bundle_measures_real_bytes(self, small_prospector):
        text, size = measure_bundle(small_prospector)
        assert size == len(text.encode("utf-8"))
        assert size > 500

    def test_load_time_positive(self, small_prospector):
        text, _ = measure_bundle(small_prospector)
        assert measure_load(text, repeats=1) > 0

    def test_build_memory(self):
        peak = measure_build_memory(lambda: [0] * 100000)
        assert peak > 100000 * 4

    def test_measure_queries_one_per_problem(self, standard_prospector):
        times = measure_queries(standard_prospector)
        assert len(times) == 20
        assert all(t >= 0 for t in times)


class TestPerfReport:
    def test_full_report(self, small_prospector):
        from repro.eval.problems import Table1Problem
        from repro.eval.oracle import SolutionOracle

        problems = [
            Table1Problem(
                1,
                "toy",
                "test",
                "demo.io.InputStream",
                "demo.io.BufferedReader",
                0.1,
                1,
                SolutionOracle.none(),
            )
        ]
        report = run_perf(small_prospector, lambda: None, problems)
        assert report.bundle_bytes > 0
        assert report.load_seconds > 0
        assert len(report.query_seconds) == 1
        assert 0 <= report.fraction_under(10.0) <= 1
        assert "load" in report.format_report()

    def test_fraction_under_empty(self):
        from repro.eval import PerfReport

        report = PerfReport()
        assert report.fraction_under(1.0) == 0.0
        assert report.mean_query_seconds == 0.0
        assert report.max_query_seconds == 0.0


class TestStorePerf:
    def test_run_store_perf_end_to_end(self, small_prospector, tmp_path):
        from repro.eval import run_store_perf

        def rebuild():
            from repro import Prospector

            return Prospector(small_prospector.registry, small_prospector.corpus)

        report = run_store_perf(
            small_prospector, rebuild, tmp_path / "graph.psnap", repeats=1
        )
        assert report.snapshot_bytes > 500
        assert report.snapshot_load_seconds > 0
        assert report.verified_load_seconds >= report.snapshot_load_seconds * 0.1
        assert report.rebuild_seconds > 0
        assert report.speedup == (
            report.rebuild_seconds / report.snapshot_load_seconds
        )

    def test_report_serializes_and_formats(self):
        from repro.eval import StorePerfReport

        report = StorePerfReport(
            snapshot_bytes=1024,
            snapshot_load_seconds=0.01,
            verified_load_seconds=0.02,
            rebuild_seconds=0.10,
        )
        data = report.to_dict()
        assert data["snapshot_bytes"] == 1024
        assert data["speedup"] == 10.0
        text = report.format_report()
        assert "snapshot load" in text
        assert "rebuild" in text

    def test_write_bench_store(self, tmp_path):
        import json

        from repro.eval import StorePerfReport, write_bench_store

        report = StorePerfReport(
            snapshot_bytes=2048,
            snapshot_load_seconds=0.005,
            verified_load_seconds=0.006,
            rebuild_seconds=0.05,
        )
        out = tmp_path / "BENCH_store.json"
        write_bench_store(report, out)
        recorded = json.loads(out.read_text())
        assert recorded["snapshot_bytes"] == 2048
        assert recorded["speedup"] == 10.0


class TestPercentile:
    def test_nearest_rank(self):
        from repro.eval import percentile

        samples = [0.1, 0.2, 0.3, 0.4]
        assert percentile(samples, 50) == 0.2
        assert percentile(samples, 95) == 0.4
        assert percentile(samples, 100) == 0.4
        assert percentile(samples, 0) == 0.1

    def test_empty_is_zero(self):
        from repro.eval import percentile

        assert percentile([], 50) == 0.0

    def test_order_independent(self):
        from repro.eval import percentile

        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


class TestStressGraph:
    def test_shape_scales_with_fan_out(self):
        from repro.eval import build_stress_graph
        from repro.search import count_paths
        from repro.typesystem import named

        fan = 4
        registry, graph = build_stress_graph(fan_out=fan)
        # Source, Target, java.lang.String, void, fan mids/leaves/deads.
        assert graph.node_count() == 4 + 3 * fan
        assert (
            count_paths(
                graph,
                named("stress.Source"),
                named("stress.Target"),
                max_cost=4,
            )
            == fan * fan
        )

    def test_kernel_agrees_on_stress_graph(self):
        from repro.eval import build_stress_graph
        from repro.search import GraphSearch, reference_solve
        from repro.typesystem import named

        registry, graph = build_stress_graph(fan_out=3)
        src, dst = named("stress.Source"), named("stress.Target")
        search = GraphSearch(graph)
        texts = lambda results: [r.jungloid.render_expression("x") for r in results]
        kernel = search.solve_multi([src], dst)
        oracle = reference_solve(graph, [src], dst, search.config, search.cost_model)
        assert texts(kernel) == texts(oracle)
        assert [r.source_type for r in kernel] == [r.source_type for r in oracle]
        assert len(kernel) == 9


class TestSearchPerf:
    def test_run_search_perf_end_to_end(self, small_prospector):
        from repro.eval import run_search_perf
        from repro.eval.problems import Table1Problem
        from repro.eval.oracle import SolutionOracle

        problems = [
            Table1Problem(
                1,
                "toy",
                "test",
                "demo.io.InputStream",
                "demo.io.BufferedReader",
                0.1,
                1,
                SolutionOracle.none(),
            )
        ]
        report = run_search_perf(
            small_prospector,
            problems,
            batch_rounds=2,
            repeats=1,
            stress_fan_out=3,
        )
        assert report.identical_results
        assert len(report.reference_query_seconds) == 1
        assert len(report.kernel_query_seconds) == 1
        assert report.compile_seconds > 0
        assert report.batch_query_count == 2
        assert report.one_at_a_time_seconds > 0
        assert report.batch_seconds > 0
        assert report.stress_nodes == 13  # 4 + 3 * fan_out
        assert report.stress_paths == 9
        assert report.stress_reference_seconds > 0
        assert report.stress_kernel_seconds > 0
        text = report.format_report()
        assert "single-query speedup" in text
        assert "throughput speedup" in text

    def test_report_math_and_serialization(self):
        from repro.eval import SearchPerfReport

        report = SearchPerfReport(
            reference_query_seconds=[0.004, 0.008],
            kernel_query_seconds=[0.001, 0.002],
            identical_results=True,
            compile_seconds=0.005,
            batch_rounds=3,
            batch_query_count=60,
            one_at_a_time_seconds=0.6,
            batch_seconds=0.1,
            stress_reference_seconds=0.03,
            stress_kernel_seconds=0.01,
        )
        assert report.single_query_speedup == 4.0
        assert report.one_at_a_time_qps == 100.0
        assert report.batch_qps == 600.0
        assert abs(report.batch_throughput_speedup - 6.0) < 1e-9
        assert report.stress_speedup == 3.0
        data = report.to_dict()
        assert data["table1"]["single_query_speedup"] == 4.0
        assert data["table1"]["identical_results"] is True
        assert abs(data["batch"]["throughput_speedup"] - 6.0) < 1e-9
        assert data["stress"]["speedup"] == 3.0

    def test_zero_guards(self):
        from repro.eval import SearchPerfReport

        report = SearchPerfReport()
        assert report.single_query_speedup == 0.0
        assert report.one_at_a_time_qps == 0.0
        assert report.batch_qps == 0.0
        assert report.batch_throughput_speedup == 0.0
        assert report.stress_speedup == 0.0

    def test_write_bench_search(self, tmp_path):
        import json

        from repro.eval import SearchPerfReport, write_bench_search

        report = SearchPerfReport(
            kernel_query_seconds=[0.001],
            reference_query_seconds=[0.002],
            identical_results=True,
        )
        out = tmp_path / "BENCH_search.json"
        write_bench_search(report, out)
        recorded = json.loads(out.read_text())
        assert recorded["table1"]["single_query_speedup"] == 2.0
        assert recorded["table1"]["identical_results"] is True
