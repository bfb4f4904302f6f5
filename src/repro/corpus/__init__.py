"""Corpus loading utilities."""

from ..robustness import CorpusDiagnostics, CorpusFault
from .loader import (
    CorpusLoadError,
    CorpusProgram,
    clone_registry,
    load_corpus_files,
    load_corpus_texts,
    resolve_and_check_lenient,
    resolve_corpus,
)

__all__ = [
    "CorpusDiagnostics",
    "CorpusFault",
    "CorpusLoadError",
    "CorpusProgram",
    "clone_registry",
    "load_corpus_files",
    "load_corpus_texts",
    "resolve_and_check_lenient",
    "resolve_corpus",
]
