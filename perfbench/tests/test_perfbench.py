"""Tests of the benchmark itself: seeded generators, repeatable counts,
the generated corpus, and the run contract.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import workloads
from spans import LAYER_METRICS, Tracer, install, layer_metrics

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.fixture(scope="module")
def pool():
    return gen.load_pool()


@pytest.fixture(scope="module")
def bundled():
    return workloads.bundled_prospector()


def _corpus():
    from repro.data import corpus_texts

    return corpus_texts()


def _streams(seed, pool):
    originals = gen.clone_corpus(_corpus(), 1)
    return (
        _take(gen.table1_order(seed, range(1, 21)), 40),
        [json.dumps(e, sort_keys=True) for e in _take(gen.query_stream(seed, pool), 300)],
        _take(gen.edit_stream(seed, originals), 30),
    )


def test_same_seed_same_requests(pool):
    assert _streams(7, pool) == _streams(7, pool)


def test_different_seed_different_requests(pool):
    a, b = _streams(7, pool), _streams(8, pool)
    for stream_a, stream_b in zip(a, b):
        assert stream_a != stream_b


def test_table1_order_asks_every_problem_each_round():
    order = _take(gen.table1_order(3, range(1, 21)), 40)
    assert sorted(order[:20]) == list(range(1, 21))
    assert sorted(order[20:]) == list(range(1, 21))


def test_same_seed_same_answer_digest(pool, bundled):
    def digest(seed):
        texts = []
        for entry in _take(gen.query_stream(seed, pool), 200):
            answer = workloads.render_answer(bundled, entry)[1]
            assert gen.answer_digest(answer) == entry["digest"]
            texts.extend(answer)
        return gen.answer_digest(texts)

    assert digest(5) == digest(5)


def test_pool_covers_table1_and_enough_targets(pool):
    table1 = {e["table1"] for t in pool["targets"] for e in t["entries"] if e.get("table1")}
    assert table1 == set(range(1, 21))
    assert len(pool["targets"]) == len({t["target"] for t in pool["targets"]}) >= 190
    kinds = {e["kind"] for t in pool["targets"] for e in t["entries"]}
    assert kinds == {"query", "complete"}


@pytest.mark.parametrize("clones", [1, 8, 16])
def test_generated_corpus_loads_clean_and_mines_bundled_suffixes(clones, bundled):
    texts = gen.clone_corpus(_corpus(), clones)
    assert len(texts) == 12 * clones
    report = gen.check_corpus(texts, gen.suffix_descriptions(bundled))
    assert report == {"files": 12 * clones, "suffixes": 24, "quarantined": 0}


@pytest.mark.parametrize("kind", gen.EDIT_KINDS)
def test_every_edit_kind_keeps_the_corpus_valid(kind, bundled):
    texts = [(name, gen.apply_edit(text, kind, 1)) for name, text in _corpus()]
    assert all(edited != text for (_, edited), (_, text) in zip(texts, _corpus()))
    gen.check_corpus(texts, gen.suffix_descriptions(bundled))


def _traced_counts(workload_cls, seed, requests):
    workload = workload_cls()
    workload.prepare()
    try:
        state = workload.setup()
        tracer = Tracer()
        installed = install(tracer)
        try:
            loop = run.closed_loop(
                workload, state, workload.requests(seed), 0.0,
                min_requests=requests, tracer=tracer,
            )
        finally:
            installed.remove()
        assert loop.errors == []
        return layer_metrics(tracer, requests, requests)
    finally:
        workload.close()


REPEATABLE = {
    workloads.CliCold: (2, ["cli.modules_count", "minijava.resolve_count"]),
    workloads.QueryServe: (150, ["search.dijkstra_count", "search.paths_count"]),
    workloads.IndexUpdate: (
        3, ["minijava.resolve_count", "pipeline.files_remined_count"]
    ),
}


@pytest.mark.parametrize("workload_cls", list(REPEATABLE), ids=lambda w: w.name)
def test_counts_repeat_exactly(workload_cls):
    requests, names = REPEATABLE[workload_cls]
    first = _traced_counts(workload_cls, 3, requests)
    second = _traced_counts(workload_cls, 3, requests)
    for name in names:
        assert first[name] > 0
        assert first[name] == second[name], name


def test_install_restores_every_entry_point():
    import repro.pipeline.pipeline as pipeline_module
    from repro.core import Prospector

    before = (pipeline_module.parse_minijava, Prospector.__dict__["query"])
    installed = install(Tracer())
    assert pipeline_module.parse_minijava is not before[0]
    installed.remove()
    assert (pipeline_module.parse_minijava, Prospector.__dict__["query"]) == before


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.request = 0
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    total = (tracer.ends[outer] - tracer.starts[outer]) * 1000.0
    own = tracer.self_ms(range(1))
    assert own["a"] + own["b"] == pytest.approx(total)
    assert own["b"] == pytest.approx((tracer.ends[inner] - tracer.starts[inner]) * 1000.0)


def test_plain_run_reports_every_end_to_end_metric(capsys):
    result = run.run("query-serve", 1, 0.5, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    result = run.run("query-serve", 1, 0.5, True)
    assert result["correct"]
    assert set(result["metrics"]) == set(LAYER_METRICS)


@pytest.mark.parametrize("pct", [70.0, 90.0, 99.0])
def test_tail_samples_leave_ten_beyond(pct):
    n = run.tail_samples(pct)
    assert n * (100.0 - pct) / 100.0 >= 10
    assert (n - 1) * (100.0 - pct) / 100.0 < 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
