"""Compare a snapshot start with a full rebuild, over the bundled corpus
(12 files) and the index-update corpus (96 files).

Usage, from the repository root::

    python3 perfbench/compare_start.py

Times each start five times per corpus size, alternating which of the two
goes first and collecting garbage before each, and prints their medians
in ms. A snapshot start is ``Prospector.from_snapshot`` with its
stage sidecar (what ``repro index update`` pays before updating); a
rebuild parses the stubs and the corpus and builds from scratch.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def main() -> int:
    from repro.core import Prospector
    from repro.corpus import load_corpus_texts
    from repro.data import corpus_texts, standard_registry

    def rebuild(texts):
        registry = standard_registry()
        return Prospector(registry, load_corpus_texts(registry, texts))

    def snapshot_start(snapshot):
        started = Prospector.from_snapshot(snapshot)
        if started.pipeline is None:
            raise RuntimeError("snapshot start did not rehydrate the pipeline")
        return started

    work = workloads.WORK / "compare-start"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for clones in (1, 8):
            texts = gen.clone_corpus(corpus_texts(), clones)
            snapshot = work / f"corpus{clones}.psnap"
            rebuild(texts).save_snapshot(snapshot)
            starts = {
                "rebuild": lambda: rebuild(texts),
                "snapshot start": lambda: snapshot_start(snapshot),
            }
            times = {name: [] for name in starts}
            for repeat in range(REPEATS):
                order = list(starts) if repeat % 2 == 0 else list(reversed(starts))
                for name in order:
                    gc.collect()
                    t0 = time.perf_counter()
                    started = starts[name]()
                    times[name].append((time.perf_counter() - t0) * 1000.0)
                    del started  # freed outside the timing
            summary = ", ".join(
                f"{name} {statistics.median(ms):.1f} ms" for name, ms in times.items()
            )
            print(f"{len(texts)} files: {summary} (medians of {REPEATS})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
