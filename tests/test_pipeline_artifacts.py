"""Tests for stage artifacts: fingerprints, per-file record round-trips,
the snapshot stage sidecar, and incremental restarts."""

import json

import pytest

from repro import Prospector
from repro.corpus import load_corpus_texts
from repro.pipeline import (
    CorpusPipeline,
    FileMineRecord,
    StageFormatError,
    check_stage_dict,
    diff_fingerprints,
    fingerprint_text,
    fingerprint_texts,
)
from repro.store import (
    SnapshotCorruptError,
    load_stage_sidecar,
    save_stage_sidecar,
    stage_sidecar_path,
    try_load_stage_sidecar,
)

from .conftest import SMALL_CORPUS

#: Resolves, but fails the type check.
ILL_TYPED = ("illtyped.mj", "package c; class T { void f() { int x = null; } }")


class TestFingerprints:
    def test_deterministic_and_content_sensitive(self):
        assert fingerprint_text("abc") == fingerprint_text("abc")
        assert fingerprint_text("abc") != fingerprint_text("abd")

    def test_duplicate_source_names_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_texts([("a.mj", "x"), ("a.mj", "y")])

    def test_diff_categories(self):
        old = fingerprint_texts([("a.mj", "1"), ("b.mj", "2"), ("c.mj", "3")])
        new = fingerprint_texts([("a.mj", "1"), ("b.mj", "2x"), ("d.mj", "4")])
        diff = diff_fingerprints(old, new)
        assert diff.added == ("d.mj",)
        assert diff.changed == ("b.mj",)
        assert diff.removed == ("c.mj",)
        assert diff.unchanged == ("a.mj",)
        assert not diff.is_empty
        assert diff_fingerprints(old, old).is_empty


@pytest.fixture()
def small_pipeline(small_registry):
    return CorpusPipeline.build(small_registry, [("handler.mj", SMALL_CORPUS)])


class TestRecordRoundTrip:
    def test_record_survives_dict_round_trip(self, small_pipeline):
        registry = small_pipeline.program.registry
        for record in small_pipeline.records.values():
            back = FileMineRecord.from_dict(registry, record.to_dict())
            assert back.source == record.source
            assert back.fingerprint == record.fingerprint
            assert back.examples == record.examples
            assert back.faults == record.faults
            assert back.decl_deps == record.decl_deps
            assert back.site_deps == record.site_deps
            assert back.type_deps == record.type_deps

    def test_stage_dict_is_json_safe(self, small_pipeline):
        data = small_pipeline.to_stage_dict()
        check_stage_dict(json.loads(json.dumps(data)))

    def test_check_rejects_foreign_or_incomplete_dicts(self, small_pipeline):
        with pytest.raises(StageFormatError):
            check_stage_dict({"format": "something-else"})
        data = small_pipeline.to_stage_dict()
        del data["records"]
        with pytest.raises(StageFormatError):
            check_stage_dict(data)


class TestFromArtifacts:
    def test_restart_reuses_cached_records(self, small_registry, small_pipeline):
        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        reborn = CorpusPipeline.from_artifacts(small_registry, data)
        assert [j.steps for j in reborn.suffixes] == [
            j.steps for j in small_pipeline.suffixes
        ]
        # The rebuild mined nothing: every record came from the artifacts.
        assert reborn.last_stats.files_remined == ()
        assert reborn.last_stats.files_reused == 1

    def test_changed_extraction_config_discards_cache(
        self, small_registry, small_pipeline
    ):
        from repro.mining import ExtractionConfig

        data = small_pipeline.to_stage_dict()
        reborn = CorpusPipeline.from_artifacts(
            small_registry, data, extraction=ExtractionConfig(max_steps=3)
        )
        # Config mismatch: cached examples may be stale, so re-mine all.
        assert reborn.last_stats.files_remined == ("handler.mj",)

    def test_check_is_persisted_and_defaults_on(self, small_registry, small_pipeline):
        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        assert data["check"] is True
        data["check"] = False
        assert CorpusPipeline.from_artifacts(small_registry, data).check is False
        del data["check"]  # artifacts written before the key existed
        assert CorpusPipeline.from_artifacts(small_registry, data).check is True


class TestSidecar:
    def test_save_load_round_trip(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        payload = small_pipeline.to_stage_dict()
        written = save_stage_sidecar(snap, payload)
        assert written == stage_sidecar_path(snap)
        assert load_stage_sidecar(snap) == json.loads(json.dumps(payload))

    def test_missing_and_damaged_sidecars(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        assert try_load_stage_sidecar(snap) is None
        path = save_stage_sidecar(snap, small_pipeline.to_stage_dict())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            load_stage_sidecar(snap)
        assert try_load_stage_sidecar(snap) is None

    def test_truncated_sidecar_rejected(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        path = save_stage_sidecar(snap, small_pipeline.to_stage_dict())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(SnapshotCorruptError):
            load_stage_sidecar(snap)


class TestProspectorRestart:
    def queries(self):
        return [("demo.ui.ISelection", "demo.ui.Item")]

    def answers(self, prospector):
        return [
            [s.jungloid.render_expression("x") for s in prospector.query(a, b)]
            for a, b in self.queries()
        ]

    def test_snapshot_restart_stays_incremental(self, tmp_path, small_registry):
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        assert stage_sidecar_path(snap).exists()

        second = Prospector.from_snapshot(snap)
        assert second.pipeline is not None and second.pipeline.deferred
        assert second.graph is second.pipeline.graph
        # Until its first update a sidecar start serves the snapshot
        # header's verdicts; answering queries replays nothing.
        header_verdicts = second.verdicts
        assert header_verdicts.to_dict() == first.verdicts.to_dict()
        assert self.answers(second) == self.answers(first)
        assert second.pipeline.deferred
        # The restart can update incrementally: untouched files reuse
        # their persisted records.
        stats = second.update_corpus(
            upserts=[("handler.mj", SMALL_CORPUS + "\n// touched\n")]
        )
        assert stats.files_remined == ("handler.mj",)
        assert not second.pipeline.deferred
        self.assert_state_read_from_pipeline(second)
        # After it, the pipeline's verdicts, equal to the header's here.
        assert second.verdicts is second.pipeline.verdicts
        assert second.verdicts.to_dict() == header_verdicts.to_dict()
        assert [j.steps for j in second.mined_jungloids] == [
            j.steps for j in first.mined_jungloids
        ]
        assert self.answers(second) == self.answers(first)

    @staticmethod
    def assert_state_read_from_pipeline(prospector):
        pipeline = prospector.pipeline
        assert prospector.graph is pipeline.graph
        assert prospector.corpus is pipeline.program
        assert prospector.mining is pipeline.mining
        assert prospector.mined_jungloids == pipeline.suffixes

    def test_damaged_sidecar_degrades_to_query_only(self, tmp_path, small_registry):
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        stage_sidecar_path(snap).write_bytes(b"garbage\nnot json")

        second = Prospector.from_snapshot(snap)
        assert second.pipeline is None  # sidecar unusable, snapshot fine
        assert second.corpus is None and second.mining is None
        # A graph-only start serves the snapshot header's verdicts.
        assert second.verdicts.to_dict() == first.verdicts.to_dict()
        assert [j.steps for j in second.mined_jungloids] == [
            j.steps for j in first.mined_jungloids
        ]
        assert self.answers(second) == self.answers(first)
        with pytest.raises(RuntimeError):
            second.update_corpus(upserts=[("handler.mj", SMALL_CORPUS)])

    @pytest.mark.parametrize("lenient", [True, False], ids=["lenient", "strict"])
    def test_unchecked_load_stays_unchecked_after_restart(
        self, tmp_path, small_registry, lenient
    ):
        texts = [("handler.mj", SMALL_CORPUS), ILL_TYPED]
        corpus = load_corpus_texts(small_registry, texts, check=False, lenient=lenient)
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)

        second = Prospector.from_snapshot(snap)
        # Re-checking on restart would quarantine the ill-typed file
        # (lenient) or reject the sidecar outright (strict).
        assert second.pipeline is not None
        assert second.pipeline.check is False
        assert [u.source for u in second.corpus.units] == ["handler.mj", "illtyped.mj"]
        if lenient:
            assert second.corpus_diagnostics.ok
        assert second.pipeline.last_stats.files_remined == ()
        stats = second.update_corpus(
            upserts=[("handler.mj", SMALL_CORPUS + "\n// touched\n")]
        )
        assert stats.files_remined == ("handler.mj",)
        assert self.answers(second) == self.answers(first)

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "graph-only"])
    def test_snapshot_start_builds_the_graph_once(
        self, tmp_path, small_registry, monkeypatch, sidecar
    ):
        from repro.graph import JungloidGraph

        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        if not sidecar:
            stage_sidecar_path(snap).unlink()

        build = JungloidGraph.build.__func__
        builds = []

        def counting_build(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(JungloidGraph, "build", classmethod(counting_build))
        second = Prospector.from_snapshot(snap)
        assert len(builds) == 1  # the load audit's graph is the live one
        assert (second.pipeline is not None) == sidecar
        assert self.answers(second) == self.answers(first)

    def test_public_only_mismatch_builds_the_configured_graph(
        self, tmp_path, small_registry
    ):
        from repro import ProspectorConfig
        from repro.graph import graph_stats

        config = ProspectorConfig(public_only=False)
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        snap = tmp_path / "g.snap"
        Prospector(small_registry, corpus).save_snapshot(snap)

        second = Prospector.from_snapshot(snap, config=config)
        fresh = Prospector(small_registry, corpus, config)
        assert graph_stats(second.graph).rows() == graph_stats(fresh.graph).rows()
        assert self.answers(second) == self.answers(fresh)


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` (the binding its callers look up)."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


#: A second file for two-file corpora: it mines one more cast.
OTHER_FILE = (
    "other.mj",
    "package c; import demo.ui.Viewer; import demo.ui.Item;\n"
    "import demo.ui.IStructuredSelection;\n"
    "class O { IStructuredSelection f(Viewer v) {"
    " return (IStructuredSelection) v.getSelection(); } }\n",
)
#: OTHER_FILE edited to mine one cast more.
OTHER_EDITED = (
    "other.mj",
    OTHER_FILE[1][:-2] + " Item g(Viewer v) { return (Item) v.getInput(); } }\n",
)
#: Queries whose answers use the mined casts of both files.
TWO_FILE_QUERIES = [
    ("demo.ui.Panel", "demo.ui.Item"),
    ("demo.ui.Viewer", "demo.ui.IStructuredSelection"),
    ("demo.ui.Viewer", "demo.ui.Item"),
]


class TestDeferredStart:
    """A sidecar start records the stage artifacts and parses nothing;
    the first update or corpus read replays them, exactly once."""

    def test_queries_replay_nothing(self, tmp_path, monkeypatch, standard_prospector):
        from repro.eval import TABLE1_PROBLEMS
        from repro.pipeline import pipeline as pipeline_module

        snap = tmp_path / "g.snap"
        standard_prospector.save_snapshot(snap)
        parses = _count_calls(monkeypatch, pipeline_module, "parse_minijava")

        def answers(prospector):
            return [
                [(r.inline("x"), r.verdict) for r in prospector.query(p.t_in, p.t_out)]
                for p in TABLE1_PROBLEMS
            ]

        started = Prospector.from_snapshot(snap)
        assert answers(started) == answers(standard_prospector)
        assert parses == []
        assert started.pipeline.deferred

    @pytest.mark.parametrize("attr", ["program", "mining", "verdicts"])
    def test_first_read_replays_like_an_eager_build(
        self, small_registry, monkeypatch, attr
    ):
        from repro.pipeline import pipeline as pipeline_module

        texts = [("handler.mj", SMALL_CORPUS), OTHER_FILE]
        eager = CorpusPipeline.build(small_registry, texts)
        data = json.loads(json.dumps(eager.to_stage_dict()))
        parses = _count_calls(monkeypatch, pipeline_module, "parse_minijava")
        deferred = CorpusPipeline.from_artifacts(small_registry, data)
        assert deferred.deferred and parses == []

        assert getattr(deferred, attr) is not None
        assert not deferred.deferred
        assert len(parses) == 2  # each file once
        assert {s: r.to_dict() for s, r in deferred.records.items()} == {
            s: r.to_dict() for s, r in eager.records.items()
        }
        assert [j.steps for j in deferred.suffixes] == [j.steps for j in eager.suffixes]
        assert deferred.verdicts.to_dict() == eager.verdicts.to_dict()
        assert deferred.last_stats.files_remined == ()
        assert len(parses) == 2  # later reads do not replay again

    def test_update_after_start_equals_a_fresh_build(
        self, tmp_path, small_registry, monkeypatch
    ):
        from repro.pipeline import pipeline as pipeline_module

        texts = [("handler.mj", SMALL_CORPUS), OTHER_FILE]
        snap = tmp_path / "g.snap"
        Prospector(small_registry, load_corpus_texts(small_registry, texts)).save_snapshot(
            snap
        )
        parses = _count_calls(monkeypatch, pipeline_module, "parse_minijava")
        resolves = _count_calls(monkeypatch, pipeline_module, "resolve_corpus")
        started = Prospector.from_snapshot(snap)
        stats = started.update_corpus(upserts=[OTHER_EDITED])
        # One pass over the edited corpus: no separate replay first.
        assert len(parses) == 2 and len(resolves) == 1
        assert stats.files_changed == ("other.mj",)
        assert stats.files_added == () and stats.files_removed == ()
        assert stats.files_remined == ("other.mj",)

        assert stats.suffixes_added == 1
        new_texts = [texts[0], OTHER_EDITED]
        fresh = Prospector(small_registry, load_corpus_texts(small_registry, new_texts))
        assert started.verdicts.to_dict() == fresh.verdicts.to_dict()
        assert [j.steps for j in started.mined_jungloids] == [
            j.steps for j in fresh.mined_jungloids
        ]
        for a, b in TWO_FILE_QUERIES:
            assert [(s.inline("x"), s.verdict) for s in started.query(a, b)] == [
                (s.inline("x"), s.verdict) for s in fresh.query(a, b)
            ]

    def test_noop_update_after_start_reports_noop(self, tmp_path, small_registry):
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        snap = tmp_path / "g.snap"
        Prospector(small_registry, corpus).save_snapshot(snap)
        started = Prospector.from_snapshot(snap)
        revision = started.graph.revision
        stats = started.update_corpus(upserts=[("handler.mj", SMALL_CORPUS)])
        assert stats.noop and stats.files_remined == ()
        assert started.graph.revision == revision
        assert not started.pipeline.deferred

    def test_start_without_header_verdicts_replays_for_them(
        self, tmp_path, small_registry
    ):
        # The rebuild rung of the recovery ladder carries no header
        # verdicts; the intact sidecar supplies them.
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        snap.write_bytes(b"torn")
        started = Prospector.from_snapshot(
            snap, rebuild=lambda: (small_registry, first.mined_jungloids)
        )
        assert started.store_diagnostics.degraded
        assert not started.pipeline.deferred
        assert started.verdicts is started.pipeline.verdicts
        assert started.verdicts.to_dict() == first.verdicts.to_dict()

    def _strict_snapshot(self, tmp_path, small_registry, broken):
        """A strict two-file snapshot; ``broken`` rewrites the sidecar's
        stored handler.mj (checksum kept valid) so it no longer parses."""
        from repro.store import load_stage_sidecar

        texts = [("handler.mj", SMALL_CORPUS), OTHER_FILE]
        corpus = load_corpus_texts(small_registry, texts, lenient=False)
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        if broken:
            data = load_stage_sidecar(snap)
            assert data["lenient"] is False
            data["texts"][0][1] = "class {"
            save_stage_sidecar(snap, data)
        return first, snap

    def test_replay_failure_leaves_update_raising_runtime_error(
        self, tmp_path, small_registry
    ):
        first, snap = self._strict_snapshot(tmp_path, small_registry, broken=True)
        started = Prospector.from_snapshot(snap)
        assert started.pipeline is not None  # nothing parsed yet
        assert self.answers(started) == self.answers(first)
        with pytest.raises(RuntimeError, match="usable stage sidecar"):
            started.update_corpus(upserts=[OTHER_EDITED])
        # Now graph-only, like a start whose sidecar failed to load.
        assert started.pipeline is None and started.corpus is None
        assert self.answers(started) == self.answers(first)
        with pytest.raises(RuntimeError, match="usable stage sidecar"):
            started.update_corpus(upserts=[OTHER_EDITED])

    def test_bad_edit_after_start_raises_its_own_error(self, tmp_path, small_registry):
        from repro.minijava import MiniJavaError

        first, snap = self._strict_snapshot(tmp_path, small_registry, broken=False)
        started = Prospector.from_snapshot(snap)
        with pytest.raises(MiniJavaError):
            started.update_corpus(upserts=[("other.mj", "class {")])
        # The sidecar replayed: the instance stays updatable.
        assert started.pipeline is not None and not started.pipeline.deferred
        stats = started.update_corpus(upserts=[("other.mj", OTHER_FILE[1] + "//\n")])
        assert stats.files_remined == ("other.mj",)
        assert self.answers(started) == self.answers(first)
        assert all(self.answers(first))

    @staticmethod
    def answers(prospector):
        return [
            [s.inline("x") for s in prospector.query(a, b)] for a, b in TWO_FILE_QUERIES
        ]
