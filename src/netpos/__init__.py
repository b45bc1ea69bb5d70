"""Positional analysis of large graphs.

Epsilon-equitable partitions by iterative refinement on a permutation-array
cell store (``fast_eep``; ``run_refinement`` adds run counters), partition
similarity scoring across time-evolving snapshots, and co-evolution analysis
of same-position vertex pairs. A ``Partition`` is a pair of arrays: the
vertex ids ascending and each id's cell index.

``import netpos`` loads no submodule: each exported name is imported from
its module on first use (PEP 562), so a CLI process pays only for the
modules its command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "textio": ("ParseError", "VertexLabelMap", "save_edge_list"),
    "graphs": (
        "GeneratorConfig", "Graph", "SnapshotSpec", "TemporalEdgeLog",
        "build_snapshots", "generate_power_law", "load_edge_list",
        "load_temporal_edge_list", "reciprocal_projection",
    ),
    "partition": (
        "EngineConfig", "IterationLimitError", "Partition", "RefinementStats",
        "SignatureCollisionError", "degree_partition", "epsilon_spread",
        "equitable_oracle", "fast_eep", "read_partition_file",
        "run_refinement", "write_partition_file",
    ),
    "similarity": (
        "SimilarityScore", "UniverseMismatchError", "restrict_partition",
        "similarity_score",
    ),
    "centrality": (
        "CONVENTIONS", "CentralityVector", "betweenness_centrality",
        "compute_measures", "degree_centrality", "shapley_centrality",
        "triangle_counts",
    ),
    "coevolution": (
        "DEFAULT_BIN_EDGES", "DEFAULT_PAIR_CAP", "CoevolutionReport",
        "OverlapMatrix", "coevolution_report", "overlap_matrix",
        "pair_difference_histogram", "same_position_pairs",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
