"""Construction, verification, and certification of Ramsey co-critical graphs.

A graph is co-critical for a clique order t and a tree order k when its edges
admit a red/blue coloring with no red clique on t vertices and no blue
component reaching k vertices, but adding any missing edge destroys every such
coloring.  This package builds extremal examples of these graphs, verifies
co-criticality by exhaustive search, certifies edge lower bounds through a
weighted infection process on the red side, and checks the structural facts
that make the arguments go through.
"""

from .coloring import (
    BlockPartition,
    EdgeColoring,
    blue_blocks,
    cross_graph,
    is_critical,
    make_coloring,
    make_partition,
    partition_to_coloring,
)
from .construction import ConstructionParams, blueprint_coloring, build
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, complement, complete_graph, make_graph
from .percolation import PercolationCertificate, PercolationError, closure
from .percolation import run as percolation_run
from .search import (
    IndeterminateResultError,
    SearchBudget,
    SearchOutcome,
    arrows,
    brute_force_exists,
    exists_critical_coloring,
    max_red_critical_coloring,
)
from .verify import (
    CocriticalReport,
    check_critical_structure,
    is_cocritical,
    min_cocritical_search,
    saturation_structure_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "CocriticalReport",
    "ConstructionParams",
    "EdgeColoring",
    "Graph",
    "IndeterminateResultError",
    "PercolationCertificate",
    "PercolationError",
    "SearchBudget",
    "SearchOutcome",
    "arrows",
    "blue_blocks",
    "blueprint_coloring",
    "brute_force_exists",
    "build",
    "check_critical_structure",
    "closure",
    "complement",
    "complete_graph",
    "cross_graph",
    "emit_graph6",
    "exists_critical_coloring",
    "is_cocritical",
    "is_critical",
    "make_coloring",
    "make_graph",
    "make_partition",
    "max_red_critical_coloring",
    "min_cocritical_search",
    "parse_graph6",
    "partition_to_coloring",
    "percolation_run",
    "saturation_structure_checks",
    "__version__",
]
