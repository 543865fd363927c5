"""Exact domination, packing, and product invariants for digraphs."""

from didom.core import (
    Digraph,
    UndirectedGraph,
    build_digraph,
    build_undirected,
    classify_leaves,
    dumps_arclist,
    girth,
    is_acyclic_digraph,
    is_ditree,
    loads_arclist,
    read_arclist,
    underlying_connected,
    underlying_graph,
    write_arclist,
)
from didom.errors import (
    ArcListParseError,
    CapacityError,
    CliqueLimitExceeded,
    InvalidArcError,
    SolveTimeout,
)
from didom.products import (
    ProductVertexMap,
    cartesian_product,
    direct_product,
    induced_subdigraph,
)
from didom.auxgraph import (
    ChordalityResult,
    closed_in_neighborhood_graph,
    is_chordal,
    maximal_cliques,
    open_in_neighborhood_graph,
)
from didom.solvers import (
    brute_force_invariant,
    compute_invariants,
    domination_number,
    open_packing_number,
    packing_number,
    partition_two_dominating_sets,
    total_domination_number,
)
from didom.records import VerificationRecord

__version__ = "0.1.0"

__all__ = [
    "ArcListParseError",
    "CapacityError",
    "ChordalityResult",
    "CliqueLimitExceeded",
    "Digraph",
    "InvalidArcError",
    "ProductVertexMap",
    "SolveTimeout",
    "UndirectedGraph",
    "VerificationRecord",
    "brute_force_invariant",
    "build_digraph",
    "build_undirected",
    "cartesian_product",
    "classify_leaves",
    "closed_in_neighborhood_graph",
    "compute_invariants",
    "direct_product",
    "domination_number",
    "dumps_arclist",
    "girth",
    "induced_subdigraph",
    "is_acyclic_digraph",
    "is_chordal",
    "is_ditree",
    "loads_arclist",
    "maximal_cliques",
    "open_in_neighborhood_graph",
    "open_packing_number",
    "packing_number",
    "partition_two_dominating_sets",
    "read_arclist",
    "total_domination_number",
    "underlying_connected",
    "underlying_graph",
    "write_arclist",
    "__version__",
]
