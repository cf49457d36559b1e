"""Weighted improper coloring of weighted digraphs.

A coloring is valid when every vertex's incoming weight from
same-colored neighbors stays strictly below 1; the library computes the
minimum number of colors exactly (brute force and two tree-decomposition
dynamic programs), evaluates bounds, and generates reduction and
hardness instances.  All arithmetic is exact rational.
"""

from __future__ import annotations

from .bounds import (
    BoundReport,
    bound_report,
    greedy_recolor,
    greedy_recolor_trace,
    lower_bound_chromatic,
    subcubic_two_coloring,
    subcubic_two_coloring_trace,
    upper_bound_degree_weight,
    upper_bound_indegree,
    upper_bound_sum_weights,
)
from .decomposition import (
    DecompositionViolation,
    TreeDecomposition,
    build_decomposition,
    extended_bags,
    validate_decomposition,
)
from .errors import DuplicateEdgeError, FormatError, InstanceTooLargeError, PreconditionError
from .formats import (
    parse_coloring,
    parse_decomposition,
    parse_digraph,
    parse_graph_auto,
    parse_undirected,
    serialize_coloring,
    serialize_decomposition,
    serialize_digraph,
    serialize_undirected,
)
from .fpt_budget import (
    BudgetMemoStats,
    BudgetSolver,
    check_fixed_point,
    min_precision_bits,
    solve_fpt_budget,
)
from .fpt_indegree import IndegreeSolver, MemoStats, solve_fpt_indegree
from .generators import (
    complete_embed,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    reduce_defective,
)
from .graph import (
    Coloring,
    UndirectedWeightedGraph,
    WeightedDigraph,
    as_weight,
    cap,
    check_total_coloring,
    coloring_violations,
    embed_undirected,
    is_valid_coloring,
    max_weighted_indegree,
    underlying_graph,
    weighted_indegree,
)
from .oracle import (
    SolveResult,
    exact_chi_w,
    exact_chromatic_underlying,
    exact_defective_number,
    is_defective_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetMemoStats",
    "BudgetSolver",
    "Coloring",
    "DecompositionViolation",
    "DuplicateEdgeError",
    "FormatError",
    "IndegreeSolver",
    "InstanceTooLargeError",
    "MemoStats",
    "PreconditionError",
    "SolveResult",
    "TreeDecomposition",
    "UndirectedWeightedGraph",
    "WeightedDigraph",
    "as_weight",
    "bound_report",
    "build_decomposition",
    "cap",
    "check_fixed_point",
    "check_total_coloring",
    "coloring_violations",
    "complete_embed",
    "embed_undirected",
    "exact_chi_w",
    "exact_chromatic_underlying",
    "exact_defective_number",
    "extended_bags",
    "greedy_recolor",
    "greedy_recolor_trace",
    "is_defective_coloring",
    "is_valid_coloring",
    "lower_bound_chromatic",
    "max_weighted_indegree",
    "min_precision_bits",
    "parse_coloring",
    "parse_decomposition",
    "parse_digraph",
    "parse_graph_auto",
    "parse_undirected",
    "partition_instance",
    "random_instance",
    "random_subcubic_instance",
    "reduce_defective",
    "serialize_coloring",
    "serialize_decomposition",
    "serialize_digraph",
    "serialize_undirected",
    "solve_fpt_budget",
    "solve_fpt_indegree",
    "subcubic_two_coloring",
    "subcubic_two_coloring_trace",
    "underlying_graph",
    "upper_bound_degree_weight",
    "upper_bound_indegree",
    "upper_bound_sum_weights",
    "validate_decomposition",
    "weighted_indegree",
]
