"""Seeded workload generators.

Every generator is a pure function of its seed (and of the committed
query pool), so the same ``--seed`` always yields the same requests. The
program under test only ever receives what these functions produce: type
names for queries and file texts for corpus edits.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "data" / "query_pool.json"

#: Zipf exponent of target popularity in the query-serve stream.
ZIPF_S = 1.0
#: Requests per query-serve round; every round has the same mix. Large
#: enough that the least popular of ~190 targets is asked at least once.
ROUND_SIZE = 2000


# ----------------------------------------------------------------------
# cli-cold: a seeded order of the 20 Table-1 problems
# ----------------------------------------------------------------------


def table1_order(seed: int, problem_ids: Sequence[int]) -> Iterator[int]:
    """Endless stream of Table-1 problem ids: each round of ``len(ids)``
    requests is a fresh seeded shuffle, so every problem is asked equally
    often."""
    rng = random.Random(f"cli-cold/{seed}")
    ids = list(problem_ids)
    while True:
        rng.shuffle(ids)
        yield from ids


# ----------------------------------------------------------------------
# query-serve: Zipf-skewed stream over the committed query pool
# ----------------------------------------------------------------------


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def answer_digest(texts: Sequence[str]) -> str:
    """Digest of a ranked answer list (rendered texts, in rank order)."""
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()[:16]


def round_counts(n: int, total: int) -> List[int]:
    """Requests per target in one round of ``total``: Zipf shares of the
    targets' fixed popularity ranks, rounded by largest remainder."""
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, n + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def query_stream(seed: int, pool: dict) -> Iterator[dict]:
    """Endless seeded stream of pool entries, in rounds of
    :data:`ROUND_SIZE` requests.

    Every round asks each target its Zipf share of requests (the pool's
    target order is the popularity rank) and cycles through each target's
    entries from the first, so all seeds ask the same entries equally
    often; the seed only shuffles the order within each round. (Entry
    costs differ by up to 100x, so a seeded mix would make throughput
    depend on the seed.)
    """
    rng = random.Random(f"query-serve/{seed}")
    targets = pool["targets"]
    counts = round_counts(len(targets), ROUND_SIZE)
    cursor = [0] * len(targets)
    while True:
        order = [i for i, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(order)
        for i in order:
            entries = targets[i]["entries"]
            yield entries[cursor[i] % len(entries)]
            cursor[i] += 1


# ----------------------------------------------------------------------
# index-update: a cloned corpus and seeded one-file edits
# ----------------------------------------------------------------------

_PACKAGE = re.compile(r"^package\s+([\w.]+)\s*;", re.MULTILINE)
_CLASS = re.compile(r"\bclass\s+([A-Z]\w*)\s*(?:extends|implements|\{)")
_METHOD = re.compile(
    r"^  (?:public |protected |private )?(?:static )?[\w.<>\[\]]+ (\w+)\([^)]*\) \{$",
    re.MULTILINE,
)


def clone_corpus(
    bundled: Sequence[Tuple[str, str]], clones: int
) -> List[Tuple[str, str]]:
    """``clones`` copies of every bundled file.

    Copy ``K`` moves ``package corpus.X`` to ``corpus.X.cK`` and renames
    each declared class ``C`` to ``CcK`` throughout the file, so the
    copies declare distinct client types but contain the same API usage.
    """
    out: List[Tuple[str, str]] = []
    for k in range(clones):
        for name, text in bundled:
            package = _PACKAGE.search(text)
            if package is None:
                raise ValueError(f"{name}: no package declaration")
            cloned = (
                text[: package.start(1)]
                + f"{package.group(1)}.c{k}"
                + text[package.end(1):]
            )
            for cls in sorted(set(_CLASS.findall(text))):
                cloned = re.sub(rf"\b{cls}\b", f"{cls}c{k}", cloned)
            out.append((f"c{k}/{name}", cloned))
    return out


def _first_method(text: str) -> Tuple[str, int, int]:
    """Name, start and end offsets of the first method declared at class
    level (two-space indent, as in every bundled corpus file)."""
    match = _METHOD.search(text)
    if match is None:
        raise ValueError("no method declaration found")
    depth = 0
    for i in range(match.end() - 1, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return match.group(1), match.start(), i + 1
    raise ValueError("unbalanced braces in method body")


def _insert_member(text: str, member: str) -> str:
    close = text.rstrip().rfind("}")
    return text[:close] + member + text[close:]


EDIT_KINDS = ("comment", "helper", "duplicate")


def apply_edit(original: str, kind: str, nonce: int) -> str:
    """One valid edit of a corpus file, made from its original text.

    ``comment`` appends a line comment (re-mines the file, grafts
    nothing); ``helper`` adds a cast-free method (changes the file's call
    graph); ``duplicate`` copies the first method under a new name (one
    more mined example of an existing suffix). ``nonce`` makes every edit
    a real content change.
    """
    if kind == "comment":
        return original.rstrip("\n") + f"\n// edit {nonce}\n"
    if kind == "helper":
        return _insert_member(
            original, f"\n  public Object edit{nonce}(Object o) {{\n    return o;\n  }}\n"
        )
    if kind == "duplicate":
        name, start, end = _first_method(original)
        body = original[start:end]
        copy = body.replace(f" {name}(", f" {name}Edit{nonce}(", 1)
        return _insert_member(original, "\n" + copy + "\n")
    raise ValueError(f"unknown edit kind {kind!r}")


def edit_stream(
    seed: int, originals: Sequence[Tuple[str, str]]
) -> Iterator[Tuple[str, str]]:
    """Endless seeded stream of one-file edits ``(source, new_text)``."""
    rng = random.Random(f"index-update/{seed}")
    nonce = 0
    while True:
        source, text = originals[rng.randrange(len(originals))]
        kind = EDIT_KINDS[rng.randrange(len(EDIT_KINDS))]
        nonce += 1
        yield source, apply_edit(text, kind, nonce)


def check_corpus(texts: Sequence[Tuple[str, str]], expected_suffixes: Sequence[str]) -> Dict[str, int]:
    """Load ``texts`` leniently and mine them; raise unless nothing is
    quarantined and the mined suffixes equal ``expected_suffixes``."""
    from repro.core import Prospector
    from repro.corpus import load_corpus_texts
    from repro.data import standard_registry

    registry = standard_registry()
    program = load_corpus_texts(registry, list(texts), lenient=True)
    quarantined = len(program.diagnostics.quarantined_sources())
    if quarantined:
        raise ValueError(f"generated corpus quarantined {quarantined} file(s)")
    prospector = Prospector(registry, program)
    got = suffix_descriptions(prospector)
    if got != sorted(expected_suffixes):
        raise ValueError(
            f"generated corpus mined {len(got)} suffixes, expected {len(expected_suffixes)}"
        )
    return {"files": len(texts), "suffixes": len(got), "quarantined": quarantined}


def suffix_descriptions(prospector) -> List[str]:
    return sorted(s.describe() for s in prospector.mining.suffixes)
