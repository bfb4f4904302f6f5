"""The three benchmark workloads.

Each workload is driven in a closed loop by one client in one process:
the next request is sent only after the previous answer came back. A
workload provides ``setup`` (timed, repeated), ``requests`` (the seeded
stream), ``serve`` (the timed request), ``check`` (the per-request
correctness check, untimed), ``finish`` (end-of-run checks) and
``sizes`` (peak memory and index size).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import gen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

#: Answers a Table-1 tester reads before giving up (eval.queryproc).
READ_LIMIT = 5


def _mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def _index_bytes(snapshot: Path) -> int:
    from repro.store import stage_sidecar_path

    return os.path.getsize(snapshot) + os.path.getsize(stage_sidecar_path(snapshot))


def bundled_prospector():
    from repro.core import Prospector
    from repro.data import standard_corpus, standard_registry

    registry = standard_registry()
    return Prospector(registry, standard_corpus(registry))


def table1_problems():
    from repro.eval.problems import TABLE1_PROBLEMS

    return {p.id: p for p in TABLE1_PROBLEMS}


def oracle_found(problem, jungloids: Sequence) -> bool:
    """Did the tester find the desired jungloid within the read limit?"""
    rank = problem.oracle.rank_in(list(jungloids)[:READ_LIMIT])
    return rank is not None


def oracle_error(problem, jungloids: Sequence) -> Optional[str]:
    """Score a Table-1 answer: found iff the paper found it."""
    found = oracle_found(problem, jungloids)
    if found != (problem.paper_rank is not None):
        return f"table1 #{problem.id}: found={found}, paper found={problem.paper_rank is not None}"
    return None


def render_answer(prospector, entry: dict) -> Tuple[list, List[str]]:
    """Serve one pool entry: ranked results and their rendered texts."""
    if entry["kind"] == "query":
        results = prospector.query(entry["t_in"], entry["t_out"])
        return results, [r.inline("x") for r in results]
    from repro.core import CursorContext

    context = CursorContext.at_assignment(
        prospector.registry,
        target_type=entry["t_out"],
        target_name="result",
        visible=[tuple(v) for v in entry["visible"]],
    )
    results = prospector.complete(context)
    texts = []
    for r in results:
        var = context.variable_of_type(r.jungloid.input_type)
        texts.append(r.inline(var.name if var else ""))
    return results, texts


class Workload:
    name = ""
    #: Tail percentile reported; the timed loop runs on until at least 10
    #: samples lie beyond it.
    tail_pct = 90.0
    #: Requests over which per-layer counts and ratios are taken.
    window = 1

    def prepare(self) -> None:
        """Untimed one-off work before set-up (self-checks, work dir)."""

    def setup(self):
        raise NotImplementedError

    def requests(self, seed: int) -> Iterator:
        raise NotImplementedError

    def serve(self, state, request, tracer: Optional[Tracer]):
        raise NotImplementedError

    def check(self, state, request, answer) -> Optional[str]:
        return None

    def finish(self, state) -> Tuple[int, List[str]]:
        """End-of-run checks: (checks attempted, failure messages)."""
        return 0, []

    def sizes(self, state) -> Tuple[float, int]:
        """(peak RSS in MB, index bytes on disk)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------


class CliCold(Workload):
    """A fresh ``python -m repro query T_IN T_OUT`` process per request."""

    name = "cli-cold"
    tail_pct = 70.0
    window = 20

    def prepare(self) -> None:
        self.problems = table1_problems()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = WORK / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.found = {}

    def setup(self):
        """The reference answers the children must print, plus one warm-up
        child so the bytecode cache is filled before timing."""
        prospector = bundled_prospector()
        expected = {}
        for pid, problem in self.problems.items():
            results = prospector.query(problem.t_in, problem.t_out)
            lines = [f"#{r.rank}  {r.inline('x')}" for r in results[:READ_LIMIT]]
            by_text = {}
            for r in results:
                by_text.setdefault(r.inline("x"), []).append(r.jungloid)
            if not lines:
                lines = [f"no jungloids found for ({problem.t_in}, {problem.t_out})"]
            expected[pid] = (0 if results else 1, lines, by_text)
        self._run_child(self._argv(1), None)
        return prospector, expected

    def requests(self, seed: int):
        return gen.table1_order(seed, sorted(self.problems))

    def _argv(self, pid: int) -> List[str]:
        p = self.problems[pid]
        return ["query", p.t_in, p.t_out, "--top", str(READ_LIMIT)]

    def _run_child(self, argv: List[str], tracer: Optional[Tracer]):
        if tracer is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            spans = self.work / "child-spans.json"
            cmd = [sys.executable, str(CHILD), str(spans), *argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
        )
        if tracer is not None:
            with open(spans, "r", encoding="utf-8") as handle:
                tracer.absorb(json.load(handle), tracer.request, tracer.current())
        return proc

    def serve(self, state, pid, tracer):
        return self._run_child(self._argv(pid), tracer)

    def check(self, state, pid, proc) -> Optional[str]:
        _, expected = state
        code, lines, by_text = expected[pid]
        if proc.returncode != code:
            return f"#{pid}: exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-200:]}"
        got = proc.stdout.splitlines()
        if got != lines:
            return f"#{pid}: answer differs from the in-process reference"
        jungloids = []
        for line in got if code == 0 else []:
            text = line.split("  ", 1)[1]
            jungloids.append(by_text[text][0])
        problem = self.problems[pid]
        self.found[pid] = oracle_found(problem, jungloids)
        return oracle_error(problem, jungloids)

    def sizes(self, state):
        rss_mb = _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        prospector, _ = state
        snapshot = self.work / "bundled.psnap"
        prospector.save_snapshot(snapshot)
        return rss_mb, _index_bytes(snapshot)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# query-serve
# ----------------------------------------------------------------------


class QueryServe(Workload):
    """One long-lived Prospector answering a Zipf-skewed query stream."""

    name = "query-serve"
    tail_pct = 99.0
    window = 300

    def prepare(self) -> None:
        self.pool = gen.load_pool()
        self.problems = table1_problems()
        self.work = WORK / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.found = {}

    def setup(self):
        return bundled_prospector()

    def requests(self, seed: int):
        return gen.query_stream(seed, self.pool)

    def serve(self, prospector, entry, tracer):
        return render_answer(prospector, entry)

    def check(self, prospector, entry, answer) -> Optional[str]:
        results, texts = answer
        table1 = entry.get("table1")
        if table1 is not None:
            problem = self.problems[table1]
            jungloids = [r.jungloid for r in results]
            self.found[table1] = oracle_found(problem, jungloids)
            error = oracle_error(problem, jungloids)
            if error:
                return error
        if gen.answer_digest(texts) != entry["digest"]:
            return f"{entry}: ranked answers differ from the golden digest"
        return None

    def sizes(self, prospector):
        # Read the peak before saving: the serving loop never saves.
        rss_mb = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        snapshot = self.work / "serve.psnap"
        prospector.save_snapshot(snapshot)
        return rss_mb, _index_bytes(snapshot)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# index-update
# ----------------------------------------------------------------------


class IndexUpdate(Workload):
    """``repro index update SNAP --set FILE=EDIT``, in process, over a
    generated corpus: snapshot start, one-file update, snapshot save."""

    name = "index-update"
    tail_pct = 70.0
    window = 5
    #: Copies of the 12 bundled corpus files (96 files).
    clones = 8

    def prepare(self) -> None:
        from repro.data import corpus_texts

        self.work = WORK / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.snapshot = self.work / "corpus.psnap"
        self.originals = gen.clone_corpus(corpus_texts(), self.clones)
        gen.check_corpus(self.originals, gen.suffix_descriptions(bundled_prospector()))

    def setup(self):
        """Generate the corpus and build the first index (``repro index
        build``). Returns the live corpus texts, edited in place."""
        from repro.core import Prospector
        from repro.corpus import load_corpus_texts
        from repro.data import corpus_texts, standard_registry

        for path in self.work.iterdir():
            path.unlink()
        texts = gen.clone_corpus(corpus_texts(), self.clones)
        registry = standard_registry()
        Prospector(registry, load_corpus_texts(registry, texts)).save_snapshot(self.snapshot)
        return {"texts": dict(texts), "last": None}

    def requests(self, seed: int):
        return gen.edit_stream(seed, self.originals)

    def serve(self, state, edit, tracer):
        from repro.core import Prospector

        source, text = edit
        # A `repro index update` process holds one Prospector: let go of the
        # previous request's before starting this one.
        state["last"] = None
        prospector = Prospector.from_snapshot(self.snapshot)
        if prospector.pipeline is None:
            raise RuntimeError("snapshot start came up without its stage sidecar")
        stats = prospector.update_corpus(upserts=[(source, text)])
        prospector.save_snapshot(self.snapshot)
        state["texts"][source] = text
        state["last"] = prospector
        return prospector, stats

    def check(self, state, edit, answer) -> Optional[str]:
        prospector, stats = answer
        source = edit[0]
        diagnostics = prospector.store_diagnostics
        if diagnostics is not None and diagnostics.degraded:
            return f"{source}: degraded snapshot start: {diagnostics.summary()}"
        if stats.noop or source not in stats.files_changed or not stats.files_remined:
            return f"{source}: update did not re-mine the edited file"
        return None

    def finish(self, state) -> Tuple[int, List[str]]:
        """The updated index must pass verification and answer every probe
        exactly like a fresh build over the same edited texts, both live
        and after a snapshot start."""
        from repro.core import Prospector
        from repro.corpus import load_corpus_texts
        from repro.data import standard_registry
        from repro.store import SnapshotStore, verify_snapshot

        failures = []
        diagnostics = verify_snapshot(SnapshotStore(self.snapshot))
        if diagnostics.faults:
            failures.append(f"verify_snapshot: {diagnostics.summary()}")
        registry = standard_registry()
        texts = list(state["texts"].items())
        fresh = Prospector(registry, load_corpus_texts(registry, texts))
        instances = [Prospector.from_snapshot(self.snapshot)]
        if state["last"] is not None:
            instances.append(state["last"])
        probes = [
            {"kind": "query", "t_in": p.t_in, "t_out": p.t_out}
            for _, p in sorted(table1_problems().items())
        ]
        for probe in probes:
            want = render_answer(fresh, probe)[1]
            for instance in instances:
                if render_answer(instance, probe)[1] != want:
                    failures.append(f"{probe}: answers differ from a fresh build")
        return 1 + len(probes) * len(instances), failures

    def sizes(self, state):
        return _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss), _index_bytes(self.snapshot)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliCold, QueryServe, IndexUpdate)}
