"""Graph search and the PROSPECTOR ranking heuristic."""

from .cache import DEFAULT_MAX_CACHED_TARGETS, LRUDistanceCache
from .cluster import Cluster, cluster_results, representatives, type_chain
from .engine import BatchQuery, GraphSearch, SearchConfig, SearchResult
from .kernel import (
    CompiledGraph,
    EnumerationReport,
    KernelDistances,
    UNREACHABLE,
    compile_graph,
    distances_for,
    kernel_distances,
    kernel_enumerate_paths,
    kernel_shortest_path,
)
from .paths import (
    count_paths,
    distances_to,
    enumerate_paths,
    reference_solve,
    shortest_length,
    shortest_path,
)
from .ranking import (
    RankKey,
    ViabilityRankKey,
    package_crossings,
    rank,
    rank_key,
    true_output_type,
    viability_rank_key,
)

__all__ = [
    "BatchQuery",
    "Cluster",
    "CompiledGraph",
    "DEFAULT_MAX_CACHED_TARGETS",
    "EnumerationReport",
    "GraphSearch",
    "KernelDistances",
    "LRUDistanceCache",
    "RankKey",
    "SearchConfig",
    "SearchResult",
    "UNREACHABLE",
    "ViabilityRankKey",
    "cluster_results",
    "compile_graph",
    "count_paths",
    "distances_for",
    "distances_to",
    "enumerate_paths",
    "kernel_distances",
    "kernel_enumerate_paths",
    "kernel_shortest_path",
    "package_crossings",
    "rank",
    "rank_key",
    "reference_solve",
    "representatives",
    "shortest_length",
    "shortest_path",
    "type_chain",
    "viability_rank_key",
]
