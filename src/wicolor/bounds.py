"""Bounds on the weighted improper chromatic number, plus the two
constructive procedures whose analyses those bounds come from.

All arithmetic is exact.  The degree/weight upper bound is realized by
`greedy_recolor`; the sub-cubic two-coloring realizes the bound for
graphs of maximum degree three with all weights below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .decomposition import TreeDecomposition, require_valid, validate_decomposition
from .errors import PreconditionError
from .graph import (
    Coloring,
    UndirectedWeightedGraph,
    WeightedDigraph,
    cap,
    max_weighted_indegree,
    underlying_graph,
)
from .oracle import DEFAULT_CHROMATIC_LIMIT, exact_chromatic_underlying


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one instance.

    treewidth_cap is width+1 of a supplied decomposition, at least 1
    (None when no decomposition is given); every coloring needs at most
    that many colors, so it acts as one more upper bound.
    """

    lower_chromatic: int
    upper_degree_weight: int
    upper_sum_weights: int
    upper_indegree: int
    treewidth_cap: int | None = None

    def as_lines(self) -> list[str]:
        pairs = [
            ("lower_chromatic", self.lower_chromatic),
            ("upper_degree_weight", self.upper_degree_weight),
            ("upper_sum_weights", self.upper_sum_weights),
            ("upper_indegree", self.upper_indegree),
        ]
        if self.treewidth_cap is not None:
            pairs.append(("treewidth_cap", self.treewidth_cap))
        return [f"{key}={value}" for key, value in pairs]


def isqrt_floor(value: Fraction | int) -> int:
    """Largest integer s with s*s <= value, exactly (s²·q ≤ p for p/q)."""
    value = Fraction(value)
    if value < 0:
        raise PreconditionError(f"isqrt_floor needs a nonnegative value, got {value}")
    return isqrt(value.numerator // value.denominator)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lower_bound_chromatic(
    H: UndirectedWeightedGraph, *, max_n: int = DEFAULT_CHROMATIC_LIMIT
) -> int:
    """ceil(chi / (cap(w_min)+1)) where chi is the chromatic number of the
    positive-weight part of H and w_min its smallest positive weight.

    Any single color class of a valid coloring can be refined into at
    most cap(w_min)+1 proper classes, which is what makes this a lower
    bound.  A graph with no positive-weight edge needs one color.  Above
    max_n vertices chi is not searched for; its trivial lower value 2
    takes its place, which keeps the result a lower bound.
    """
    positive = [w for _, _, w in H.edges if w > 0]
    if not positive:
        return 1
    w_min = min(positive)
    chi = exact_chromatic_underlying(H, max_n=max_n) if H.n <= max_n else 2
    return _ceil_div(chi, cap(w_min) + 1)


def upper_bound_degree_weight(G: WeightedDigraph) -> int:
    """ceil(max_degree / (cap(w_max)+1)) + 1 over the underlying graph.

    Realized constructively by greedy_recolor.  All-zero weights (or no
    arcs at all) need one color.
    """
    positive = [w for _, _, w in G.arcs if w > 0]
    if not positive:
        return 1
    w_max = max(positive)
    degree = underlying_graph(G).max_degree
    return _ceil_div(degree, cap(w_max) + 1) + 1


def upper_bound_sum_weights(G: WeightedDigraph) -> int:
    """2*floor(sqrt(2W)) + 1 where W is the total arc weight."""
    units = sum(units for pairs in G.in_units.values() for _, units in pairs)
    return 2 * isqrt(2 * units // G.weight_scale) + 1


def upper_bound_indegree(G: WeightedDigraph) -> int:
    """floor(2 * max weighted indegree + 1), computed on exact rationals."""
    return int(2 * max_weighted_indegree(G) + 1)


def bound_report(
    G: WeightedDigraph,
    decomposition: TreeDecomposition | None = None,
    *,
    max_n: int = DEFAULT_CHROMATIC_LIMIT,
) -> BoundReport:
    """Every bound for G; the width cap needs a valid decomposition."""
    if decomposition is not None:
        require_valid(validate_decomposition(G, decomposition))
    return BoundReport(
        lower_chromatic=lower_bound_chromatic(underlying_graph(G), max_n=max_n),
        upper_degree_weight=upper_bound_degree_weight(G),
        upper_sum_weights=upper_bound_sum_weights(G),
        upper_indegree=upper_bound_indegree(G),
        treewidth_cap=None if decomposition is None else max(1, decomposition.width + 1),
    )


def _round_robin(n: int, k: int) -> Coloring:
    return {v: (v - 1) % k + 1 for v in range(1, n + 1)}


def _monochromatic_count(
    adjacency: dict[int, list[int]], coloring: Coloring
) -> int:
    return sum(
        1
        for v, nbrs in adjacency.items()
        for u in nbrs
        if u < v and coloring[u] == coloring[v]
    )


def _recolor(
    adjacency: dict[int, list[int]], coloring: Coloring, k: int, limit: int
) -> int:
    """Move the smallest vertex with more than `limit` same-colored
    neighbors into the smallest class 1..k where it has at most `limit`,
    until none is left; returns the number of moves.  The caller's
    precondition guarantees such a class exists."""

    def same_color_count(v: int, c: int) -> int:
        return sum(1 for u in adjacency[v] if coloring[u] == c)

    steps = 0
    mono = _monochromatic_count(adjacency, coloring)
    while True:
        offender = next(
            (v for v in adjacency if same_color_count(v, coloring[v]) > limit), None
        )
        if offender is None:
            return steps
        coloring[offender] = next(
            c for c in range(1, k + 1) if same_color_count(offender, c) <= limit
        )
        steps += 1
        new_mono = _monochromatic_count(adjacency, coloring)
        if new_mono >= mono:
            raise AssertionError("recolor step failed to reduce monochromatic edges")
        mono = new_mono


def greedy_recolor_trace(G: WeightedDigraph, k: int) -> tuple[Coloring, int]:
    """greedy_recolor plus the number of recolor steps performed."""
    if k < upper_bound_degree_weight(G):
        raise PreconditionError(
            f"k={k} below the degree/weight bound {upper_bound_degree_weight(G)}",
            witness=k,
        )
    coloring = _round_robin(G.n, k)
    positive = [w for _, _, w in G.arcs if w > 0]
    if not positive:
        return coloring, 0
    und = underlying_graph(G)
    adjacency = {v: [u for u, _ in und.adjacency[v]] for v in und.vertices}
    return coloring, _recolor(adjacency, coloring, k, cap(max(positive)))


def greedy_recolor(G: WeightedDigraph, k: int) -> Coloring:
    """Total k-coloring leaving every vertex at most cap(w_max) same-colored
    underlying neighbors; always valid for G.

    Starts from the round-robin coloring by vertex index and repeatedly
    recolors the smallest offending vertex into the smallest tolerable
    class.  Each step strictly reduces the number of monochromatic
    underlying edges, so at most |E| steps run.  Requires k at least
    upper_bound_degree_weight(G), which guarantees a tolerable class
    always exists.
    """
    coloring, _ = greedy_recolor_trace(G, k)
    return coloring


def subcubic_two_coloring_trace(H: UndirectedWeightedGraph) -> tuple[Coloring, int]:
    """subcubic_two_coloring plus the number of flips performed."""
    for u, v, w in H.edges:
        if w == 1:
            raise PreconditionError(
                f"edge {{{u}, {v}}} has weight 1", witness=(u, v)
            )
    for v in H.vertices:
        if H.degree(v) > 3:
            raise PreconditionError(
                f"vertex {v} has degree {H.degree(v)} > 3", witness=v
            )
    coloring = _round_robin(H.n, 2)
    adjacency = {v: [u for u, _ in H.adjacency[v]] for v in H.vertices}
    # an offender of degree <= 3 has at most one neighbor of the other
    # color, so the greedy step with k = 2 and limit 1 is a flip
    return coloring, _recolor(adjacency, coloring, 2, 1)


def subcubic_two_coloring(H: UndirectedWeightedGraph) -> Coloring:
    """2-coloring of a degree-<=3 graph leaving each vertex at most one
    same-colored neighbor; valid whenever all weights are below 1.

    A vertex with two or three same-colored neighbors flips to the
    opposite color, which strictly reduces monochromatic edges, so at
    most |E| flips run.  Weight-1 edges or degree above three are
    rejected with the offending edge or vertex as witness.
    """
    coloring, _ = subcubic_two_coloring_trace(H)
    return coloring
