"""Robustness subsystem: deadlines, graceful degradation, fault isolation.

Three pillars (see DESIGN.md, "Robustness & budgets"):

* **Budgets** — :class:`Deadline`/:class:`Budget` give every query a
  wall-clock ceiling on an injectable clock;
* **Outcomes** — :class:`QueryOutcome` wraps ranked results with a
  ``degraded`` flag and structured :class:`DegradationReason` records,
  produced by the full-window → zero-extra → shortest-path ladder;
* **Fault isolation** — :class:`CorpusDiagnostics` quarantines broken
  corpus files, :class:`ExtractionFault` records per-cast mining
  failures, and :mod:`.faults` injects deterministic failures for tests.
"""

from .budget import Budget, Clock, Deadline, ManualClock, SYSTEM_CLOCK
from .diagnostics import (
    CorpusDiagnostics,
    CorpusFault,
    ExtractionFault,
    LOAD_PHASES,
    PHASE_CHECK,
    PHASE_PARSE,
    PHASE_READ,
    PHASE_RESOLVE,
    format_faults,
)
from .faults import (
    ByteMutator,
    CorpusText,
    FlakyClock,
    FlakyFileSystem,
    InjectedFault,
    blank_text,
    corrupt_corpus,
    corrupt_file,
    flip_byte,
    garble_text,
    truncate_bytes,
    truncate_text,
)
from .outcome import (
    DEGRADATION_LADDER,
    DegradationReason,
    QueryOutcome,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
    full_outcome,
)

__all__ = [
    "Budget",
    "ByteMutator",
    "Clock",
    "CorpusDiagnostics",
    "CorpusFault",
    "CorpusText",
    "FlakyClock",
    "FlakyFileSystem",
    "DEGRADATION_LADDER",
    "Deadline",
    "DegradationReason",
    "ExtractionFault",
    "InjectedFault",
    "LOAD_PHASES",
    "ManualClock",
    "PHASE_CHECK",
    "PHASE_PARSE",
    "PHASE_READ",
    "PHASE_RESOLVE",
    "QueryOutcome",
    "REASON_DEADLINE",
    "REASON_FAULT",
    "RUNG_FULL_WINDOW",
    "RUNG_SHORTEST_PATH",
    "RUNG_ZERO_EXTRA",
    "SYSTEM_CLOCK",
    "blank_text",
    "corrupt_corpus",
    "corrupt_file",
    "flip_byte",
    "format_faults",
    "full_outcome",
    "garble_text",
    "truncate_bytes",
    "truncate_text",
]
