"""Non-crossing perfect matchings of convex point sets and the graph whose
edges join disjoint compatible pairs, together with the structural census of
that graph's components."""

from .compat import neighbors, neighbors_bruteforce
from .counting import catalan, edge_series, growth_estimate, riordan
from .dual_tree import EmbeddedTree, to_dual_tree
from .families import classify, classify_with_witness, generate_family
from .graph import (
    DcmGraph,
    build_almost_perfect_graph,
    build_graph,
    components,
    degree_stats,
    is_bipartite,
    isomorphism_classes,
    verify_medium_even_structure,
)
from .matching import (
    Matching,
    configured_max_k,
    enumerate_matchings,
    insert,
    parse_matching,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "DcmGraph",
    "EmbeddedTree",
    "Matching",
    "build_almost_perfect_graph",
    "build_graph",
    "catalan",
    "classify",
    "classify_with_witness",
    "components",
    "configured_max_k",
    "degree_stats",
    "edge_series",
    "enumerate_matchings",
    "generate_family",
    "growth_estimate",
    "insert",
    "is_bipartite",
    "isomorphism_classes",
    "neighbors",
    "neighbors_bruteforce",
    "parse_matching",
    "riordan",
    "to_dual_tree",
    "validate",
    "verify_medium_even_structure",
    "__version__",
]
