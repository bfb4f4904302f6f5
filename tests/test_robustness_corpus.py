"""Robustness tests: lenient corpus loading, quarantine diagnostics, and
fault-isolated mining."""

import pytest

from repro import Prospector
from repro.corpus import CorpusLoadError, load_corpus_files, load_corpus_texts
from repro.minijava import MiniJavaError, MjTypeError
from repro.mining import ExtractionConfig, JungloidExtractor, mine_corpus
from repro.robustness import (
    PHASE_CHECK,
    PHASE_PARSE,
    PHASE_READ,
    PHASE_RESOLVE,
    corrupt_corpus,
    garble_text,
    truncate_text,
)
from tests.conftest import SMALL_CORPUS

GOOD = ("handler.mj", SMALL_CORPUS)

#: A second healthy file, mined independently of handler.mj.
GOOD_2 = (
    "reader.mj",
    """
    package client;
    import demo.ui.Viewer;
    import demo.ui.IStructuredSelection;
    public class Extra {
      public IStructuredSelection narrow(Viewer v) {
        return (IStructuredSelection) v.getSelection();
      }
    }
    """,
)

BAD_PARSE = ("broken.mj", "package c; class ??? {")
BAD_RESOLVE = (
    "unresolved.mj",
    "package c; import no.such.Thing;\nclass R { Thing f() { return null; } }",
)
BAD_CHECK = (
    "illtyped.mj",
    "package c; class T { void f() { int x = null; } }",
)


class TestLenientLoading:
    def test_parse_fault_quarantined_good_files_survive(self, small_registry):
        program = load_corpus_texts(
            small_registry, [GOOD, BAD_PARSE, GOOD_2], lenient=True
        )
        d = program.diagnostics
        assert d is not None and not d.ok
        assert d.quarantined_sources() == ["broken.mj"]
        assert d.faults[0].phase == PHASE_PARSE
        assert "broken.mj" in str(d.faults[0])
        assert sorted(d.loaded) == ["handler.mj", "reader.mj"]
        assert program.class_count == 2

    def test_resolve_fault_quarantined(self, small_registry):
        program = load_corpus_texts(
            small_registry, [GOOD, BAD_RESOLVE], lenient=True
        )
        d = program.diagnostics
        assert d.quarantined_sources() == ["unresolved.mj"]
        assert d.faults[0].phase == PHASE_RESOLVE
        assert d.loaded == ["handler.mj"]

    def test_check_fault_quarantined(self, small_registry):
        program = load_corpus_texts(small_registry, [GOOD, BAD_CHECK], lenient=True)
        d = program.diagnostics
        assert d.quarantined_sources() == ["illtyped.mj"]
        assert d.faults[0].phase == PHASE_CHECK
        assert d.loaded == ["handler.mj"]
        assert program.check_report is not None and program.check_report.ok

    def test_every_file_broken_loads_empty(self, small_registry):
        program = load_corpus_texts(
            small_registry, [BAD_PARSE, BAD_CHECK], lenient=True
        )
        assert program.units == []
        assert program.corpus_types == []
        assert len(program.diagnostics.faults) == 2

    def test_clean_corpus_has_clean_diagnostics(self, small_registry):
        program = load_corpus_texts(small_registry, [GOOD, GOOD_2], lenient=True)
        assert program.diagnostics.ok
        assert sorted(program.diagnostics.loaded) == ["handler.mj", "reader.mj"]

    def test_mutually_referencing_good_files_stay_together(self, small_registry):
        # handler.mj's Handler is called from a second unit: lenient
        # isolation must not break legitimate cross-file references.
        caller = (
            "caller.mj",
            """
            package client;
            import demo.ui.Panel;
            public class Caller {
              public String go(Handler h, Panel p) { return h.describe(p); }
            }
            """,
        )
        program = load_corpus_texts(
            small_registry, [GOOD, caller, BAD_PARSE], lenient=True
        )
        assert sorted(program.diagnostics.loaded) == ["caller.mj", "handler.mj"]
        assert program.diagnostics.quarantined_sources() == ["broken.mj"]

    def test_strict_mode_still_raises(self, small_registry):
        with pytest.raises(MiniJavaError):
            load_corpus_texts(small_registry, [GOOD, BAD_PARSE])
        with pytest.raises(MjTypeError):
            load_corpus_texts(small_registry, [GOOD, BAD_CHECK])

    def test_strict_load_has_no_diagnostics(self, small_registry):
        program = load_corpus_texts(small_registry, [GOOD])
        assert program.diagnostics is None


class TestLenientMining:
    def test_mining_survives_one_bad_file(self, small_registry):
        texts = corrupt_corpus([GOOD, GOOD_2], ["reader.mj"], garble_text)
        program = load_corpus_texts(small_registry, texts, lenient=True)
        assert program.diagnostics.quarantined_sources() == ["reader.mj"]
        mining = mine_corpus(
            program.registry, program.units, program.corpus_types
        )
        # The healthy file still yields the paper's example jungloids.
        assert mining.example_count >= 2
        assert mining.suffix_count >= 1

    def test_truncation_mutator_also_quarantines(self, small_registry):
        texts = corrupt_corpus(
            [GOOD, GOOD_2], ["reader.mj"], lambda t: truncate_text(t, 0.6)
        )
        program = load_corpus_texts(small_registry, texts, lenient=True)
        assert "reader.mj" in program.diagnostics.quarantined_sources()
        assert "handler.mj" in program.diagnostics.loaded

    def test_corrupt_corpus_rejects_unknown_victims(self):
        with pytest.raises(KeyError):
            corrupt_corpus([GOOD], ["nope.mj"])


class TestFileLoading:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_missing_file_strict_names_the_path(self, small_registry, tmp_path):
        good = self._write(tmp_path, *GOOD)
        missing = str(tmp_path / "absent.mj")
        with pytest.raises(CorpusLoadError) as err:
            load_corpus_files(small_registry, [good, missing])
        assert "absent.mj" in str(err.value)

    def test_missing_file_lenient_quarantines_the_path(
        self, small_registry, tmp_path
    ):
        good = self._write(tmp_path, *GOOD)
        missing = str(tmp_path / "absent.mj")
        program = load_corpus_files(small_registry, [good, missing], lenient=True)
        d = program.diagnostics
        assert d.faults[0].phase == PHASE_READ
        assert "absent.mj" in d.faults[0].source
        assert d.loaded == [good]
        assert program.class_count == 1
        # The Prospector built over the program still reports the fault.
        assert Prospector(small_registry, program).corpus_diagnostics.faults == d.faults

    def test_read_faults_precede_later_phase_faults(self, small_registry, tmp_path):
        bad = self._write(tmp_path, *BAD_PARSE)
        missing = str(tmp_path / "absent.mj")
        program = load_corpus_files(small_registry, [missing, bad], lenient=True)
        phases = [f.phase for f in program.diagnostics.faults]
        assert phases == [PHASE_READ, PHASE_PARSE]


class TestExtractorFaultIsolation:
    def test_per_cast_errors_recorded_not_raised(
        self, small_registry, small_corpus, monkeypatch
    ):
        boom = RuntimeError("pathological downcast")

        def exploding(self, unit, method, cast):
            raise boom

        monkeypatch.setattr(JungloidExtractor, "extract_from_cast", exploding)
        extractor = JungloidExtractor(
            small_corpus.registry, small_corpus.units, small_corpus.corpus_types
        )
        examples = extractor.extract_all()  # must not raise
        assert examples == []
        assert len(extractor.faults) >= 1
        fault = extractor.faults[0]
        assert fault.source == "handler.mj"
        assert "pathological downcast" in fault.error

    def test_strict_config_propagates(
        self, small_registry, small_corpus, monkeypatch
    ):
        def exploding(self, unit, method, cast):
            raise RuntimeError("boom")

        monkeypatch.setattr(JungloidExtractor, "extract_from_cast", exploding)
        extractor = JungloidExtractor(
            small_corpus.registry,
            small_corpus.units,
            small_corpus.corpus_types,
            config=ExtractionConfig(strict=True),
        )
        with pytest.raises(RuntimeError):
            extractor.extract_all()

    def test_mine_corpus_reports_faults(
        self, small_registry, small_corpus, monkeypatch
    ):
        def exploding(self, unit, method, cast):
            raise RuntimeError("boom")

        monkeypatch.setattr(JungloidExtractor, "extract_from_cast", exploding)
        mining = mine_corpus(
            small_corpus.registry, small_corpus.units, small_corpus.corpus_types
        )
        assert mining.example_count == 0
        assert mining.fault_count >= 1

    def test_healthy_corpus_mines_without_faults(self, small_corpus):
        mining = mine_corpus(
            small_corpus.registry, small_corpus.units, small_corpus.corpus_types
        )
        assert mining.fault_count == 0
        assert mining.example_count >= 2
