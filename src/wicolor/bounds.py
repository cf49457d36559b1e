"""Bounds on the weighted improper chromatic number, plus the two
constructive procedures whose analyses those bounds come from.

All arithmetic is exact.  The degree/weight upper bound is realized by
`greedy_recolor`; the sub-cubic two-coloring realizes the bound for
graphs of maximum degree three with all weights below one.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import floor, isqrt

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
        return [f"{key}={value}" for key, value in asdict(self).items() if value is not None]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lower_bound_chromatic(H: UndirectedWeightedGraph) -> int:
    """ceil(chi / (cap(w_min)+1)) where chi is the chromatic number of the
    positive-weight part of H and w_min its smallest positive weight.

    Any single color class of a valid coloring can be refined into at
    most cap(w_min)+1 proper classes, which is what makes this a lower
    bound.  A graph with no positive-weight edge needs one color.  Above
    DEFAULT_CHROMATIC_LIMIT (20) vertices chi is not searched for; its
    trivial lower value 2 takes its place, which keeps the result a
    lower bound.
    """
    positive = [w for _, _, w in H.edges if w > 0]
    if not positive:
        return 1
    w_min = min(positive)
    chi = exact_chromatic_underlying(H) if H.n <= DEFAULT_CHROMATIC_LIMIT else 2
    return _ceil_div(chi, cap(w_min) + 1)


def upper_bound_degree_weight(G: WeightedDigraph) -> int:
    """ceil(max_degree / (cap(w_max)+1)) + 1 over the underlying graph.

    Realized constructively by greedy_recolor.  All-zero weights (or no
    arcs at all) need one color.
    """
    und = underlying_graph(G)
    return _degree_weight_bound(und, _max_weight(und))


def _max_weight(H: UndirectedWeightedGraph) -> Fraction | int:
    """The largest edge weight of H, 0 without edges; an underlying
    edge carries the larger weight of its arcs, so this is G's too."""
    return max((w for _, _, w in H.edges), default=0)


def _degree_weight_bound(H: UndirectedWeightedGraph, w_max: Fraction | int) -> int:
    """upper_bound_degree_weight from the underlying graph H and its
    largest weight w_max."""
    if not w_max:
        return 1
    return _ceil_div(H.max_degree, cap(w_max) + 1) + 1


def upper_bound_sum_weights(G: WeightedDigraph) -> int:
    """2*floor(sqrt(2W)) + 1 where W is the total arc weight."""
    return 2 * isqrt(_floor_twice_total_weight(G)) + 1


def _floor_twice_total_weight(G: WeightedDigraph) -> int:
    """floor(2W) from each vertex's own units, with no lcm over all arcs:
    each term 2*units/scale[v], floored at `bits` fraction bits, is less
    than one step low, so the floored sum and the count of inexact terms
    bracket 2W*2^bits.  A bracket that reaches the next integer, as when
    2W is an integer made of inexact terms, takes the exact sum."""
    terms = [(2 * sum(u for _, u in pairs), G.scale[v]) for v, pairs in G.in_units.items()]
    bits = G.n.bit_length() + 32  # the bracket is under 2^-32 wide
    low = inexact = 0
    for units, scale in terms:
        term, rest = divmod(units << bits, scale)
        low += term
        inexact += rest > 0
    if (low + max(inexact - 1, 0)) >> bits == low >> bits:
        return low >> bits
    return floor(sum(Fraction(units, scale) for units, scale in terms))


def upper_bound_indegree(G: WeightedDigraph) -> int:
    """floor(2 * max weighted indegree + 1), computed on exact rationals."""
    return int(2 * max_weighted_indegree(G) + 1)


def bound_report(G: WeightedDigraph, decomposition: TreeDecomposition | None = None) -> BoundReport:
    """Every bound for G; the width cap needs a valid decomposition."""
    if decomposition is not None:
        require_valid(validate_decomposition(G, decomposition))
    und = underlying_graph(G)
    return BoundReport(
        lower_chromatic=lower_bound_chromatic(und),
        upper_degree_weight=_degree_weight_bound(und, _max_weight(und)),
        upper_sum_weights=upper_bound_sum_weights(G),
        upper_indegree=upper_bound_indegree(G),
        treewidth_cap=None if decomposition is None else max(1, decomposition.width + 1),
    )


def _round_robin(n: int, k: int) -> Coloring:
    return {v: (v - 1) % k + 1 for v in range(1, n + 1)}


def _recolor(
    adjacency: dict[int, list[int]], coloring: Coloring, k: int, limit: int
) -> int:
    """Move the smallest vertex with more than `limit` same-colored
    neighbors into the smallest class 1..k where it has at most `limit`,
    until none is left; returns the number of moves.  The caller's
    precondition guarantees such a class exists."""

    def same_color_count(v: int, c: int) -> int:
        return sum(1 for u in adjacency[v] if coloring[u] == c)

    # the offenders, smallest first; a move raises the count only of the
    # mover's neighbors in its new class, so only those are pushed
    heap = [v for v in adjacency if same_color_count(v, coloring[v]) > limit]
    heapq.heapify(heap)
    steps = 0
    while heap:
        offender = heapq.heappop(heap)
        before = same_color_count(offender, coloring[offender])
        if before <= limit:
            continue  # no longer offends
        c = next(c for c in range(1, k + 1) if same_color_count(offender, c) <= limit)
        coloring[offender] = c
        steps += 1
        # the move changes the monochromatic edge count by the mover's
        # same-colored neighbors after it minus those before
        if same_color_count(offender, c) >= before:
            raise AssertionError("recolor step failed to reduce monochromatic edges")
        for u in adjacency[offender]:
            if coloring[u] == c and same_color_count(u, c) > limit:
                heapq.heappush(heap, u)
    return steps


def greedy_recolor_trace(G: WeightedDigraph, k: int) -> tuple[Coloring, int]:
    """greedy_recolor plus the number of recolor steps performed."""
    und = underlying_graph(G)
    w_max = _max_weight(und)
    bound = _degree_weight_bound(und, w_max)
    if k < bound:
        raise PreconditionError(f"k={k} below the degree/weight bound {bound}", witness=k)
    coloring = _round_robin(G.n, k)
    if not w_max:
        return coloring, 0
    adjacency = {v: [u for u, _ in und.adjacency[v]] for v in und.vertices}
    return coloring, _recolor(adjacency, coloring, k, cap(w_max))


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
