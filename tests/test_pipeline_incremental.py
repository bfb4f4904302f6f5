"""Differential tests for the incremental pipeline: every scripted
sequence of corpus edits must leave the ranked answers byte-identical to
a from-scratch build of the same final texts."""

import sys

import pytest

import repro.minijava
from repro import Prospector
from repro.corpus import load_corpus_texts
from repro.data import standard_corpus, standard_registry
from repro.eval import TABLE1_PROBLEMS
from repro.pipeline import CorpusPipeline
from repro.typesystem import named

from .conftest import SMALL_CORPUS

#: A second client for the small corpus: same API, a different route to
#: an Item plus a reader-side chain, so edits move real mined suffixes.
SMALL_CORPUS_B = """
package client;

import demo.ui.Panel;
import demo.ui.Widget;
import demo.ui.Item;

public class Picker {
  public Item firstWidgetItem(Panel panel) {
    Widget w = panel.widget;
    Item item = (Item) w;
    return item;
  }
}
"""

SMALL_CORPUS_C = """
package client;

import demo.ui.Viewer;
import demo.ui.IStructuredSelection;

public class Chooser {
  public Object firstOf(Viewer viewer) {
    IStructuredSelection ss = (IStructuredSelection) viewer.getSelection();
    return ss.getFirstElement();
  }
}
"""


def ranked_answers(prospector, queries):
    return [
        [
            s.jungloid.render_expression("x")
            for s in prospector.query(t_in, t_out)
        ]
        for t_in, t_out in queries
    ]


SMALL_QUERIES = [
    ("demo.ui.ISelection", "demo.ui.Item"),
    ("demo.ui.Panel", "demo.ui.Item"),
    ("demo.ui.Viewer", "java.lang.Object"),
    ("demo.io.InputStream", "java.lang.String"),
]


def small_prospector_for(registry, texts):
    return Prospector(registry, load_corpus_texts(registry, texts))


def assert_matches_scratch(registry, live, texts, queries):
    scratch = small_prospector_for(registry, texts)
    assert ranked_answers(live, queries) == ranked_answers(scratch, queries)


class TestScriptedSequences:
    """Three scripted update sequences, each differentially checked
    against a from-scratch build after every step."""

    def test_sequence_modify(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        # Step 1: append a class that mines a shorter cast route.
        addon = """
public class Shortcut {
  public Item direct(Viewer viewer) {
    Item item = (Item) viewer.getSelection();
    return item;
  }
}
"""
        texts = [("handler.mj", SMALL_CORPUS + addon)]
        live.update_corpus(upserts=texts)
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        # Step 2: revert to the original.
        texts = [("handler.mj", SMALL_CORPUS)]
        live.update_corpus(upserts=texts)
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)

    def test_sequence_add_remove(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        # Add two files, one at a time.
        texts = texts + [("picker.mj", SMALL_CORPUS_B)]
        live.update_corpus(upserts=[("picker.mj", SMALL_CORPUS_B)])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        texts = texts + [("chooser.mj", SMALL_CORPUS_C)]
        live.update_corpus(upserts=[("chooser.mj", SMALL_CORPUS_C)])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        # Remove the original file: its suffixes must un-splice.
        texts = texts[1:]
        live.update_corpus(removes=["handler.mj"])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)

    def test_sequence_mixed(self, small_registry):
        texts = [
            ("handler.mj", SMALL_CORPUS),
            ("picker.mj", SMALL_CORPUS_B),
            ("chooser.mj", SMALL_CORPUS_C),
        ]
        live = small_prospector_for(small_registry, texts)
        # One update that adds, changes, and removes at once.
        changed = SMALL_CORPUS_B + "\n// trailing note\n"
        texts = [
            ("handler.mj", SMALL_CORPUS),
            ("picker.mj", changed),
            ("extra.mj", SMALL_CORPUS_C.replace("Chooser", "Second")),
        ]
        stats = live.update_corpus(
            upserts=[
                ("picker.mj", changed),
                ("extra.mj", SMALL_CORPUS_C.replace("Chooser", "Second")),
            ],
            removes=["chooser.mj"],
        )
        assert set(stats.files_changed) == {"picker.mj"}
        assert set(stats.files_added) == {"extra.mj"}
        assert set(stats.files_removed) == {"chooser.mj"}
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)


class TestTable1Differential:
    """The acceptance bar: on the bundled corpus, incremental updates
    answer every Table-1 query identically to a from-scratch build."""

    @pytest.fixture()
    def setup(self, standard_registry_and_corpus):
        registry, corpus = standard_registry_and_corpus
        return registry, Prospector(registry, corpus)

    def test_touch_one_file_answers_identical(self, setup):
        registry, live = setup
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        name, original = live.pipeline.texts[0]
        stats = live.update_corpus([(name, original + "\n// touched\n")])
        # Only the touched file re-mined.
        assert stats.files_remined == (name,)
        assert stats.files_reused == stats.files_total - 1
        scratch = Prospector(
            registry,
            pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
        )
        assert ranked_answers(live, queries) == ranked_answers(scratch, queries)

    def test_remove_and_restore_answers_identical(self, setup):
        registry, live = setup
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        baseline = ranked_answers(live, queries)
        name, original = live.pipeline.texts[0]
        removed = live.update_corpus(removes=[name])
        assert removed.suffixes_removed > 0
        scratch = Prospector(
            registry,
            pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
        )
        assert ranked_answers(live, queries) == ranked_answers(scratch, queries)
        live.update_corpus([(name, original)])
        assert ranked_answers(live, queries) == baseline


class TestNoOpUpdates:
    def test_noop_preserves_revision_and_caches(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        live.query(sel, item)  # prime the distance cache
        revision = live.graph.revision
        cached = live.search._dist_cache.get(item)
        assert cached is not None
        stats = live.update_corpus(upserts=[("handler.mj", SMALL_CORPUS)])
        assert stats.noop
        assert live.graph.revision == revision
        # Same hash -> nothing flushed: the cached distances survive
        # untouched (satellite: no-op edits must not invalidate).
        assert live.search._dist_cache.get(item) is cached

    def test_noop_keeps_compiled_kernel(self, standard_registry_and_corpus):
        registry, corpus = standard_registry_and_corpus
        live = Prospector(registry, corpus)
        compiled = live.search._compiled_graph()
        name, text = live.pipeline.texts[0]
        assert live.update_corpus([(name, text)]).noop
        assert live.search._compiled_graph() is compiled


class TestAnalysisInvalidation:
    """Verdict observations are cached per file and recomputed only for
    files the update re-mined."""

    def test_initial_build_analyzes_every_file(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS), ("picker.mj", SMALL_CORPUS_B)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        stats = pipeline.last_stats
        assert set(stats.files_reanalyzed) == {"handler.mj", "picker.mj"}
        assert stats.casts_reanalyzed > 0
        assert pipeline.verdicts is not None
        assert len(pipeline.verdicts) > 0

    def test_warm_update_reanalyzes_only_remined_files(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS), ("picker.mj", SMALL_CORPUS_B)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        stats = pipeline.update(
            [("picker.mj", SMALL_CORPUS_B + "\n// touched\n")], ()
        )
        assert set(stats.files_reanalyzed) == set(stats.files_remined)
        assert "handler.mj" not in stats.files_reanalyzed
        assert stats.timings.analyze_ms >= 0.0

    def test_noop_update_reanalyzes_nothing(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        verdicts = pipeline.verdicts
        stats = pipeline.update([("handler.mj", SMALL_CORPUS)], ())
        assert stats.noop
        assert stats.files_reanalyzed == ()
        assert stats.casts_reanalyzed == 0
        assert pipeline.verdicts is verdicts

    def test_verdicts_follow_corpus_edits(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        pairs_before = set(pipeline.verdicts.witnessed_pairs)
        assert ("demo.ui.ISelection", "demo.ui.IStructuredSelection") in (
            pairs_before
        )
        pipeline.update((), ["handler.mj"])
        assert len(pipeline.verdicts) == 0
        pipeline.update(texts, ())
        assert set(pipeline.verdicts.witnessed_pairs) == pairs_before

    def test_update_stats_serialize_analysis_fields(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        data = pipeline.last_stats.to_dict()
        assert data["files_reanalyzed"] == ["handler.mj"]
        assert data["casts_reanalyzed"] > 0
        assert "analyze_ms" in data["timings"]


class TestSelectiveInvalidation:
    def test_unaffected_target_survives_update(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        item = small_registry.lookup("demo.ui.Item")
        stream = small_registry.lookup("demo.io.InputStream")
        live.search._distances(item)
        kept = live.search._distances(stream)
        # Removing the corpus file un-splices the UI-cluster suffixes;
        # InputStream is unreachable from any changed node.
        stats = live.update_corpus(removes=["handler.mj"])
        assert stats.affected_targets > 0
        assert live.search._distances(stream) is kept
        assert item not in live.search._dist_cache


def count_resolves(monkeypatch):
    """Count ``resolve_program`` calls made through any ``repro`` module."""
    calls = []
    original = repro.minijava.resolve_program

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, "resolve_program", None) is original:
            monkeypatch.setattr(module, "resolve_program", counting)
    return calls


class TestResolveOnce:
    """A build from an already-loaded program adopts its resolution."""

    def test_cold_build_resolves_once(self, monkeypatch):
        registry = standard_registry()
        calls = count_resolves(monkeypatch)
        corpus = standard_corpus(registry)
        live = Prospector(registry, corpus)
        assert len(calls) == 1
        assert live.corpus.registry is corpus.registry
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        name, original = live.pipeline.texts[0]
        live.update_corpus([(name, original + "\n// touched\n")])
        scratch = Prospector(
            registry,
            pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
        )
        assert ranked_answers(live, queries) == ranked_answers(scratch, queries)

    def test_lenient_quarantine_is_not_adopted(self, small_registry, monkeypatch):
        texts = [("handler.mj", SMALL_CORPUS), ("broken.mj", "class {")]
        program = load_corpus_texts(small_registry, texts, lenient=True)
        assert program.diagnostics.quarantined_sources() == ["broken.mj"]
        calls = count_resolves(monkeypatch)
        live = Prospector(small_registry, program)
        assert len(calls) == 1  # the pipeline resolved again, as before
        assert live.corpus.diagnostics.quarantined_sources() == ["broken.mj"]
        assert_matches_scratch(small_registry, live, texts[:1], SMALL_QUERIES)

    def test_clean_lenient_program_is_adopted(self, small_registry, monkeypatch):
        texts = [("handler.mj", SMALL_CORPUS)]
        program = load_corpus_texts(small_registry, texts, lenient=True)
        calls = count_resolves(monkeypatch)
        live = Prospector(small_registry, program)
        assert calls == []
        assert live.corpus.diagnostics.ok
        assert live.corpus.diagnostics.loaded == ["handler.mj"]
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
