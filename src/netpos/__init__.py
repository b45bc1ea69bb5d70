"""Positional analysis of large graphs.

Epsilon-equitable partitions by iterative refinement on a permutation-array
cell store (``fast_eep``; ``run_refinement`` adds run counters), partition
similarity scoring across time-evolving snapshots, and co-evolution analysis
of same-position vertex pairs. A ``Partition`` is a pair of arrays: the
vertex ids ascending and each id's cell index.
"""

from .graphs import (
    GeneratorConfig,
    Graph,
    ParseError,
    SnapshotSpec,
    TemporalEdgeLog,
    VertexLabelMap,
    build_snapshots,
    generate_power_law,
    load_edge_list,
    load_temporal_edge_list,
    reciprocal_projection,
    save_edge_list,
)
from .partition import (
    EngineConfig,
    IterationLimitError,
    Partition,
    RefinementStats,
    SignatureCollisionError,
    degree_partition,
    epsilon_spread,
    equitable_oracle,
    fast_eep,
    read_partition_file,
    run_refinement,
    write_partition_file,
)
from .similarity import (
    SimilarityScore,
    UniverseMismatchError,
    partition_intersection,
    partitions_equal,
    restrict_partition,
    similarity_score,
)
from .centrality import (
    CONVENTIONS,
    CentralityVector,
    betweenness_centrality,
    compute_measures,
    degree_centrality,
    shapley_centrality,
    triangle_counts,
)
from .coevolution import (
    DEFAULT_BIN_EDGES,
    DEFAULT_PAIR_CAP,
    CoevolutionReport,
    OverlapMatrix,
    coevolution_report,
    overlap_matrix,
    pair_difference_histogram,
    pair_difference_values,
    same_position_pairs,
)

__version__ = "0.1.0"
