"""Exact reference solver via backtracking search, and its reductions.

Everything here is exponential.  A search is bounded by a vertex guard
(`max_n`, 16 by default) and optionally by a deterministic work budget
(`work_limit`, a count of examined vertices); either refuses with
`InstanceTooLargeError` instead of grinding.  There is one search,
`exact_chi_w`; the defective and ordinary chromatic numbers are
reductions to it.  The search is fully deterministic: it colors next the
uncolored vertex with the fewest feasible colors (ties to the most
positive-weight neighbors, then the smallest index), tries colors
ascending, and opens a new color only as the next unused one.  It keeps
its own stack, so depth is not limited by Python's recursion limit.
Witness colors are renamed by first use in vertex-index order, so
returned witnesses are canonical and stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # vertices the oracle's choice rule examined over every k it tried
    # (0 from the DP solvers); a cost, not part of the answer
    examined: int = field(default=0, compare=False)


def _guard(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise InstanceTooLargeError(
            f"{what} is limited to {max_n} vertices, got {n}", size=n, limit=max_n
        )


def exact_chi_w(
    G: WeightedDigraph,
    k_limit: int | None = None,
    *,
    max_n: int = DEFAULT_SEARCH_LIMIT,
    work_limit: int | None = None,
) -> SolveResult | None:
    """Minimum number of colors in a valid coloring of G, with witness.

    Tries k = 1, 2, ... in turn; each decision runs a backtracking
    search over integer-scaled weights (all exact).  Returns None when
    no valid coloring with at most `k_limit` colors exists; k_limit
    defaults to n, which always suffices.  Raises InstanceTooLargeError
    when G has more than `max_n` vertices, or once the vertices examined
    by the choice rule, summed over every k, exceed `work_limit` (no
    limit by default).
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
    for h, pairs in G.in_units.items():
        for t, units in pairs:
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
    limit = work_limit if work_limit is not None else float("inf")
    examined = 0
    for k in range(1, k_limit + 1):
        # one frame per colored vertex, in coloring order:
        # [vertex, untried colors (largest first), load by color,
        #  out-neighbors charged by its color, max_used before it]
        frames: list[list] = []
        max_used = 0
        while True:
            if len(frames) == n:
                renamed: dict[int, int] = {}
                for v in G.vertices:
                    renamed.setdefault(color[v], len(renamed) + 1)
                return SolveResult(
                    k, {v: renamed[color[v]] for v in G.vertices}, examined=examined
                )
            # choose the most constrained uncolored vertex
            top = min(k, max_used + 1)
            fewest = top + 1
            for u in priority:
                if color[u]:
                    continue
                examined += 1
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
                        break
                    v, v_blocked, v_load = u, blocked, load
            if examined > limit:
                raise InstanceTooLargeError(
                    f"exhaustive search gave up after {examined} examined vertices"
                    f" (limit {work_limit})",
                    size=examined,
                    limit=work_limit,
                )
            if fewest:
                untried = [c for c in range(top, 0, -1) if c not in v_blocked]
                frames.append([v, untried, v_load, None, max_used])
            # color the newest frame's vertex with its next untried color,
            # backtracking over frames whose colors are all tried
            while frames:
                frame = frames[-1]
                v, untried, v_load, touched, max_used = frame
                if touched is not None:
                    for h, units in touched:
                        spent[h] -= units
                    color[v] = 0
                if untried:
                    c = untried.pop()
                    frame[3] = touched = [(h, units) for h, units in out_units[v] if color[h] == c]
                    for h, units in touched:
                        spent[h] += units
                    color[v] = c
                    spent[v] = v_load.get(c, 0)
                    if c > max_used:
                        max_used = c
                    break
                frames.pop()
            else:
                break
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
