"""Deterministic fault injection for exercising the degradation paths.

Robustness code that is only reachable under production failures is
untested code. These hooks make every failure mode reproducible:

* :class:`ManualClock` (in :mod:`.budget`) drives deadline expiry;
* :class:`FlakyClock` raises :class:`InjectedFault` on one exact clock
  reading; the search kernel reads the clock at its deadline polls, so
  a mid-search crash happens at an exact, repeatable step;
* the corpus mutators corrupt ``(name, text)`` corpus entries in fixed
  ways (garbled token, truncation) so lenient-loading quarantine paths
  run against known-bad input;
* the byte mutators (:func:`flip_byte`, :func:`truncate_bytes`,
  :func:`corrupt_file`) damage snapshot files at exact offsets — the
  torn-write and bit-flip cases the store's recovery ladder must absorb;
* :class:`FlakyFileSystem` makes reads fail a fixed number of times, so
  the previous-generation and rebuild rungs are reachable on demand.

Nothing here is imported by production code paths; the engine and the
loaders see only the ordinary clock / corpus / reader interfaces.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Tuple


class InjectedFault(RuntimeError):
    """A deliberate failure raised by a fault-injection hook."""


class FlakyClock:
    """A :data:`~.budget.Clock` that raises on exactly its ``fail_on``-th reading.

    Every other reading returns 0.0, so a deadline on this clock never
    expires by itself. Search polls its deadline from inside the
    kernel's enumeration loop, so with
    ``SearchConfig(deadline_check_every=1)`` the fault lands at a fixed
    expansion of the code that serves real queries. The fault fires
    once: later readings (the outcome's ``elapsed_ms``, for one) succeed.
    """

    def __init__(self, fail_on: int):
        self.fail_on = int(fail_on)
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        if self.calls == self.fail_on:
            raise InjectedFault(f"injected clock fault at reading #{self.calls}")
        return 0.0


#: A corpus entry as the loaders consume it.
CorpusText = Tuple[str, str]
#: A text mutator used by :func:`corrupt_corpus`.
Mutator = Callable[[str], str]


def garble_text(text: str) -> str:
    """Inject an unlexable token mid-file — guarantees a parse failure."""
    middle = len(text) // 2
    return text[:middle] + " %?garbled?% " + text[middle:]


def truncate_text(text: str, keep_fraction: float = 0.5) -> str:
    """Chop the file mid-token, the classic interrupted-checkout shape."""
    return text[: int(len(text) * keep_fraction)]


def blank_text(text: str) -> str:
    """Replace the file with whitespace (parses to an empty unit or fails)."""
    return " \n"


# ----------------------------------------------------------------------
# Byte-level injectors for the snapshot store
# ----------------------------------------------------------------------

#: A bytes mutator used by :func:`corrupt_file`.
ByteMutator = Callable[[bytes], bytes]


def flip_byte(data: bytes, offset: int) -> bytes:
    """XOR one byte with 0xFF — the single-bit-rot / bad-sector shape.

    ``offset`` may be negative or past the end; it wraps modulo the
    length so tests can sweep arbitrary offsets without bounds math.
    """
    if not data:
        raise ValueError("flip_byte: cannot corrupt empty data")
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]


def truncate_bytes(data: bytes, keep: int) -> bytes:
    """Keep only the first ``keep`` bytes — the torn-write shape."""
    if keep < 0:
        raise ValueError("truncate_bytes: keep must be non-negative")
    return data[:keep]


def corrupt_file(path: os.PathLike, mutator: ByteMutator) -> None:
    """Damage a file in place (deliberately *not* atomically)."""
    p = Path(path)
    p.write_bytes(mutator(p.read_bytes()))


class FlakyFileSystem:
    """A ``read_bytes(path)`` that fails the first ``fail_times`` calls.

    Stands in for :class:`~repro.store.SnapshotStore`'s injectable
    reader, so transient I/O faults (NFS hiccup, evicted page) happen at
    an exact, repeatable call. Raises ``OSError`` — the same class real
    filesystems raise — so no production code special-cases the fake.
    """

    def __init__(self, fail_times: int):
        self.fail_times = int(fail_times)
        self.calls = 0

    def read_bytes(self, path: os.PathLike) -> bytes:
        self.calls += 1
        if self.calls <= self.fail_times:
            raise OSError(f"injected filesystem fault (read #{self.calls})")
        return Path(path).read_bytes()


def corrupt_corpus(
    texts: Iterable[CorpusText],
    victims: Sequence[str],
    mutator: Mutator = garble_text,
) -> List[CorpusText]:
    """A copy of ``texts`` with every entry named in ``victims`` mutated.

    Unknown victim names are an error — a typo would silently test
    nothing.
    """
    texts = list(texts)
    victim_set = set(victims)
    known = {name for name, _ in texts}
    missing = victim_set - known
    if missing:
        raise KeyError(f"corrupt_corpus: unknown corpus entries {sorted(missing)}")
    return [
        (name, mutator(text) if name in victim_set else text) for name, text in texts
    ]
