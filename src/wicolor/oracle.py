"""Exact reference solvers via guarded backtracking search.

Everything here is exponential and intentionally small-instance only;
the solvers refuse oversized inputs instead of grinding.  Searches are
fully deterministic: vertices are colored in index order, colors tried
ascending, and a new color may only be opened when all smaller ones have
appeared (first-use canonical order), so returned witnesses are stable
across runs and platforms.
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
    in_units: dict[int, list[tuple[int, int]]] = {v: [] for v in G.vertices}
    out_units: dict[int, list[tuple[int, int]]] = {v: [] for v in G.vertices}
    for t, h, w in G.arcs:
        units = int(w * scale)
        if units:
            in_units[h].append((t, units))
            out_units[t].append((h, units))

    n = G.n
    color = [0] * (n + 1)
    spent = [0] * (n + 1)

    def search(v: int, max_used: int, k: int) -> bool:
        if v > n:
            return True
        for c in range(1, min(k, max_used + 1) + 1):
            own = 0
            for t, units in in_units[v]:
                if color[t] == c:
                    own += units
            if own >= scale:
                continue
            feasible = True
            touched: list[tuple[int, int]] = []
            for h, units in out_units[v]:
                if color[h] == c:
                    spent[h] += units
                    touched.append((h, units))
                    if spent[h] >= scale:
                        feasible = False
                        break
            if feasible:
                color[v] = c
                spent[v] = own
                if search(v + 1, max(max_used, c), k):
                    return True
                color[v] = 0
            for h, units in touched:
                spent[h] -= units
        return False

    for k in range(1, k_limit + 1):
        color[:] = [0] * (n + 1)
        spent[:] = [0] * (n + 1)
        if search(1, 0, k):
            return SolveResult(k, {v: color[v] for v in G.vertices})
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

    Zero-weight edges never constrain a coloring, so they are dropped
    before solving.  Branch and bound with saturation-first vertex
    selection, seeded with a greedy clique (its vertices are pre-colored
    pairwise distinct, which any optimal coloring can be relabeled to
    match) and a greedy upper bound.
    """
    _guard(H.n, max_n, "exact chromatic number")
    adj: dict[int, set[int]] = {v: set() for v in H.vertices}
    for u, v, w in H.edges:
        if w > 0:
            adj[u].add(v)
            adj[v].add(u)
    if not any(adj.values()):
        return 1

    order = sorted(H.vertices, key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)

    color: dict[int, int] = {}
    for rank, v in enumerate(clique, start=1):
        color[v] = rank

    def greedy_bound() -> int:
        tmp: dict[int, int] = {}
        while len(tmp) < H.n:
            v = max(
                (u for u in H.vertices if u not in tmp),
                key=lambda u: (
                    len({tmp[x] for x in adj[u] if x in tmp}),
                    len(adj[u]),
                    -u,
                ),
            )
            used = {tmp[x] for x in adj[v] if x in tmp}
            c = 1
            while c in used:
                c += 1
            tmp[v] = c
        return max(tmp.values())

    best = greedy_bound()

    def search(max_used: int) -> None:
        nonlocal best
        if max_used >= best:
            return
        if len(color) == H.n:
            best = max_used
            return
        v = max(
            (u for u in H.vertices if u not in color),
            key=lambda u: (
                len({color[x] for x in adj[u] if x in color}),
                len(adj[u]),
                -u,
            ),
        )
        blocked = {color[x] for x in adj[v] if x in color}
        for c in range(1, min(max_used + 1, best - 1) + 1):
            if c in blocked:
                continue
            color[v] = c
            search(max(max_used, c))
            del color[v]

    search(len(clique))
    return best
