"""Instance generators: reductions, the partition hardness gadget, and
seeded random graphs.

Everything is deterministic given its parameters (and seed, where one
applies); generators never touch global randomness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .decomposition import TreeDecomposition
from .errors import PreconditionError
from .graph import UndirectedWeightedGraph, WeightedDigraph, embed_undirected


def reduce_defective(H: UndirectedWeightedGraph, d: int) -> WeightedDigraph:
    """Encode the defect-d coloring problem on H as a weighted digraph.

    Each undirected edge becomes the two arcs (u, v) and (v, u) of
    weight 1/(d+1): a vertex may then share its color with at most d
    neighbors before its same-color indegree reaches 1.  Edge weights
    of H are ignored; only its structure matters.
    """
    if d < 0:
        raise PreconditionError(f"defect bound must be >= 0, got {d}")
    w = Fraction(1, d + 1)
    return embed_undirected(UndirectedWeightedGraph(H.n, [(u, v, w) for u, v, _ in H.edges]))


def complete_embed(G: WeightedDigraph) -> WeightedDigraph:
    """Add weight-0 arcs until every ordered pair is present.

    A zero-weight arc never contributes to an indegree sum, so the
    result has exactly the same valid colorings as G; it is the
    canonical way to hide a graph's structure in a complete digraph.
    Idempotent.
    """
    present = set(G.arc_weights)
    arcs = list(G.arcs)
    for t in G.vertices:
        for h in G.vertices:
            if t != h and (t, h) not in present:
                arcs.append((t, h, Fraction(0)))
    return WeightedDigraph(G.n, arcs)


def partition_instance(
    elements: Sequence[int],
) -> tuple[WeightedDigraph, TreeDecomposition]:
    """Digraph (symmetric embedding) that is 2-colorable iff `elements`
    splits into two equal-sum halves, with a width-2 path decomposition.

    Vertices: A=1 and B=2 joined by a weight-1 edge, plus one vertex
    v_i = i+2 per element x_i, joined to both A and B by edges of weight
    min(2x_i/total - epsilon/m, 1), where m is the number of elements
    and epsilon = 1/(2·m·total) keeps each weight positive and the
    threshold strict.  In a 2-coloring A and B must differ, each v_i
    joins one side, and a side's incoming element weights sum below 1
    exactly when its elements sum to at most total/2; both sides manage
    that only at an exact split.  The bags {A, v_i, B} in element order
    form the decomposition, rooted at the first.  The elements must be
    positive ints (not bools), at least one.
    """
    elements = tuple(elements)
    if not elements:
        raise PreconditionError("need at least one element")
    for x in elements:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise PreconditionError(f"elements must be positive integers, got {x!r}")
    m, total = len(elements), sum(elements)
    epsilon = Fraction(1, 2 * m * total)
    a, b = 1, 2
    edges: list[tuple[int, int, Fraction]] = [(a, b, Fraction(1))]
    for i, x in enumerate(elements, start=3):
        w = min(Fraction(2 * x, total) - epsilon / m, Fraction(1))
        edges.append((a, i, w))
        edges.append((i, b, w))
    gadget = UndirectedWeightedGraph(m + 2, edges)
    bags = [{a, i, b} for i in range(3, m + 3)]
    tree_edges = [(i, i + 1) for i in range(m - 1)]
    return embed_undirected(gadget), TreeDecomposition(bags, tree_edges, root=0)


def random_instance(
    n: int,
    arc_probability: float,
    *,
    seed: int,
    weight_model: str = "dyadic",
    bits: int = 3,
    max_denominator: int = 10,
) -> WeightedDigraph:
    """Seeded random digraph: each ordered pair becomes an arc with the
    given probability.

    weight_model "dyadic" draws weights m/2^bits with 0 <= m <= 2^bits;
    "uniform-rational" draws a denominator in 1..max_denominator and a
    numerator making the weight land in [0, 1].  Identical parameters
    and seed give identical graphs.
    """
    if n < 0:
        raise PreconditionError(f"vertex count must be >= 0, got {n}")
    if not 0 <= arc_probability <= 1:
        raise PreconditionError(f"arc probability {arc_probability} outside [0, 1]")
    if weight_model == "dyadic":
        if bits < 1:
            raise PreconditionError(f"bits must be >= 1, got {bits}")
    elif weight_model == "uniform-rational":
        if max_denominator < 1:
            raise PreconditionError(f"max denominator must be >= 1, got {max_denominator}")
    else:
        raise PreconditionError(f"unknown weight model {weight_model!r}")
    rng = random.Random(seed)
    arcs = []
    for t in range(1, n + 1):
        for h in range(1, n + 1):
            if t == h:
                continue
            if rng.random() >= arc_probability:
                continue
            if weight_model == "dyadic":
                scale = 1 << bits
                w = Fraction(rng.randint(0, scale), scale)
            else:
                den = rng.randint(1, max_denominator)
                w = Fraction(rng.randint(0, den), den)
            arcs.append((t, h, w))
    return WeightedDigraph(n, arcs)


def random_subcubic_instance(
    n: int,
    *,
    seed: int,
    weight_one_probability: float = 0.25,
) -> UndirectedWeightedGraph:
    """Seeded random graph with maximum degree 3 in which every vertex
    touches at most one weight-1 edge.

    Candidate pairs are visited in a seeded shuffle; a pair becomes an
    edge when both endpoints still have degree below 3 and a draw
    accepts it with fixed probability 0.7.  An edge gets weight 1 with
    the given probability when neither endpoint already has a weight-1
    edge, otherwise a positive weight in {1/10, ..., 9/10}.  Set
    weight_one_probability=0 for instances with all weights strictly
    below 1.
    """
    if n < 0:
        raise PreconditionError(f"vertex count must be >= 0, got {n}")
    if not 0 <= weight_one_probability <= 1:
        raise PreconditionError(
            f"weight-1 probability {weight_one_probability} outside [0, 1]"
        )
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    degree = {v: 0 for v in range(1, n + 1)}
    heavy = {v: False for v in range(1, n + 1)}
    edges = []
    for u, v in pairs:
        if degree[u] >= 3 or degree[v] >= 3:
            continue
        if rng.random() >= 0.7:
            continue
        take_heavy = rng.random() < weight_one_probability
        if take_heavy and not heavy[u] and not heavy[v]:
            w = Fraction(1)
            heavy[u] = heavy[v] = True
        else:
            w = Fraction(rng.randint(1, 9), 10)
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v, w))
    return UndirectedWeightedGraph(n, edges)
