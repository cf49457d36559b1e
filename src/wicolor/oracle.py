"""Exact reference solvers via guarded backtracking search.

Everything here is exponential and intentionally small-instance only;
the solvers refuse oversized inputs instead of grinding.  There is one
search, `exact_chi_w`; the defective and ordinary chromatic numbers are
reductions to it.  The search is fully deterministic: it colors next the
uncolored vertex with the fewest feasible colors (ties to the most
positive-weight neighbors, then the smallest index), tries colors
ascending, and opens a new color only as the next unused one.  Witness
colors are renamed by first use in vertex-index order, so returned
witnesses are canonical and stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLargeError, PreconditionError
from .generators import reduce_defective
from .graph import (
    Coloring,
    UndirectedWeightedGraph,
    WeightedDigraph,
    check_total_coloring,
    embed_undirected,
)

DEFAULT_SEARCH_LIMIT = 16
DEFAULT_CHROMATIC_LIMIT = 20


@dataclass(frozen=True)
class SolveResult:
    """A minimum color count together with one coloring achieving it."""

    chromatic: int
    witness: Coloring


def _guard(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise InstanceTooLargeError(
            f"{what} is limited to {max_n} vertices, got {n}", size=n, limit=max_n
        )


def exact_chi_w(
    G: WeightedDigraph, k_limit: int | None = None, *, max_n: int = DEFAULT_SEARCH_LIMIT
) -> SolveResult | None:
    """Minimum number of colors in a valid coloring of G, with witness.

    Tries k = 1, 2, ... in turn; each decision runs a backtracking
    search over integer-scaled weights (all exact).  Returns None when
    no valid coloring with at most `k_limit` colors exists; k_limit
    defaults to n, which always suffices.
    """
    _guard(G.n, max_n, "exhaustive search")
    if k_limit is None:
        k_limit = max(1, G.n)
    if k_limit < 1:
        raise PreconditionError(f"k_limit must be >= 1, got {k_limit}")
    scale = G.weight_scale
    n = G.n
    in_units: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    out_units: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    neighbors: list[set[int]] = [set() for _ in range(n + 1)]
    for t, h, w in G.arcs:
        units = int(w * scale)
        if units:
            in_units[h].append((t, units))
            out_units[t].append((h, units))
            neighbors[t].add(h)
            neighbors[h].add(t)
    # scan order for the choice rule: ties on feasible colors go to the
    # most positive-weight neighbors, then the smallest index
    priority = sorted(range(1, n + 1), key=lambda v: (-len(neighbors[v]), v))

    color = [0] * (n + 1)
    spent = [0] * (n + 1)  # same-colored weighted indegree of colored vertices

    def search(placed: int, max_used: int, k: int) -> bool:
        if placed == n:
            return True
        top = min(k, max_used + 1)
        fewest = top + 1
        for u in priority:
            if color[u]:
                continue
            load: dict[int, int] = {}
            blocked: set[int] = set()
            for t, units in in_units[u]:
                c = color[t]
                if c:
                    load[c] = total = load.get(c, 0) + units
                    if total >= scale:
                        blocked.add(c)
            for h, units in out_units[u]:
                c = color[h]
                if c and spent[h] + units >= scale:
                    blocked.add(c)
            if top - len(blocked) < fewest:
                fewest = top - len(blocked)
                if not fewest:
                    return False
                v, v_blocked, v_load = u, blocked, load
        for c in range(1, top + 1):
            if c in v_blocked:
                continue
            touched = [(h, units) for h, units in out_units[v] if color[h] == c]
            for h, units in touched:
                spent[h] += units
            color[v] = c
            spent[v] = v_load.get(c, 0)
            if search(placed + 1, max(max_used, c), k):
                return True
            color[v] = 0
            for h, units in touched:
                spent[h] -= units
        return False

    for k in range(1, k_limit + 1):
        if search(0, 0, k):
            renamed: dict[int, int] = {}
            for v in G.vertices:
                renamed.setdefault(color[v], len(renamed) + 1)
            return SolveResult(k, {v: renamed[color[v]] for v in G.vertices})
    return None


def is_defective_coloring(H: UndirectedWeightedGraph, coloring: Coloring, d: int) -> bool:
    """True iff every vertex has at most d neighbors of its own color.

    Edge weights are ignored; this is the purely combinatorial defect
    condition on the undirected structure.
    """
    if d < 0:
        raise PreconditionError(f"defect bound must be >= 0, got {d}")
    check_total_coloring(H.n, coloring)
    for v in H.vertices:
        c = coloring[v]
        same = sum(1 for u, _ in H.adjacency[v] if coloring[u] == c)
        if same > d:
            return False
    return True


def exact_defective_number(
    H: UndirectedWeightedGraph,
    d: int,
    k_limit: int | None = None,
    *,
    max_n: int = DEFAULT_SEARCH_LIMIT,
) -> SolveResult | None:
    """Minimum k admitting a coloring where each vertex has <= d same-colored
    neighbors, solved as `exact_chi_w` on the reduction `reduce_defective`."""
    return exact_chi_w(reduce_defective(H, d), k_limit, max_n=max_n)


def exact_chromatic_underlying(
    H: UndirectedWeightedGraph, *, max_n: int = DEFAULT_CHROMATIC_LIMIT
) -> int:
    """Exact chromatic number of H restricted to its positive-weight edges.

    That is `exact_chi_w` with every positive edge at weight 1 in both
    directions, since one same-colored neighbor already reaches
    indegree 1; zero-weight edges never constrain a coloring.
    """
    hard = UndirectedWeightedGraph(H.n, [(u, v, 1) for u, v, w in H.edges if w > 0])
    return exact_chi_w(embed_undirected(hard), max_n=max_n).chromatic
