"""Regenerate ``data/query_pool.json``, the query-serve request pool.

Usage, from the repository root::

    python3 perfbench/make_pool.py

The pool is drawn once, from a fixed seed, over the bundled stubs and
corpus: ~190 query targets, in a fixed popularity order, each with up to
three reachable single-source queries (reachability from the public
``GraphSearch.shortest_cost``) and one multi-source completion with two
or three visible variables, plus the 20 Table-1 queries on their targets.
Each entry stores the digest of its ranked answer texts; the benchmark
checks every answer against it. Regenerate only when answers are meant
to change, and say why in the change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 2005
TARGETS = 190
QUERIES_PER_TARGET = 3


def build_pool() -> dict:
    from repro.typesystem import NamedType

    prospector = workloads.bundled_prospector()
    search = prospector.search
    types = sorted((n for n in prospector.graph.nodes if isinstance(n, NamedType)), key=str)
    reachable = {}
    for target in types:
        sources = [s for s in types if s != target and search.shortest_cost(s, target) is not None]
        if sources:
            reachable[str(target)] = [str(s) for s in sources]

    rng = random.Random(POOL_SEED)
    problems = sorted(workloads.table1_problems().values(), key=lambda p: p.id)
    chosen = sorted({p.t_out for p in problems})
    others = sorted(set(reachable) - set(chosen))
    chosen += rng.sample(others, TARGETS - len(chosen))
    rng.shuffle(chosen)
    all_types = [str(t) for t in types]

    targets = []
    for target in chosen:
        entries = [
            {"kind": "query", "t_in": p.t_in, "t_out": p.t_out, "table1": p.id}
            for p in problems
            if p.t_out == target
        ]
        sources = reachable.get(target, [])
        for source in rng.sample(sources, min(QUERIES_PER_TARGET, len(sources))):
            entries.append({"kind": "query", "t_in": source, "t_out": target})
        if sources:
            visible = [rng.choice(sources)]
            visible += rng.sample(all_types, rng.choice((1, 2)))
            entries.append(
                {
                    "kind": "complete",
                    "t_out": target,
                    "visible": [[name, t] for name, t in zip("abc", visible)],
                }
            )
        for entry in entries:
            entry["digest"] = gen.answer_digest(workloads.render_answer(prospector, entry)[1])
        targets.append({"target": target, "entries": entries})
    return {"pool_seed": POOL_SEED, "zipf_s": gen.ZIPF_S, "targets": targets}


def main() -> int:
    pool = build_pool()
    gen.POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    header = {k: v for k, v in pool.items() if k != "targets"}
    with open(gen.POOL_PATH, "w", encoding="utf-8") as handle:
        # One target per line keeps regenerated pools reviewable as diffs.
        handle.write(json.dumps(header)[:-1] + ', "targets": [\n')
        handle.write(",\n".join(json.dumps(t) for t in pool["targets"]))
        handle.write("\n]}\n")
    entries = sum(len(t["entries"]) for t in pool["targets"])
    print(f"wrote {gen.POOL_PATH.name}: {len(pool['targets'])} targets, {entries} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
