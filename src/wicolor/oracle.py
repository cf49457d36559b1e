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
The choice rule reads one count per vertex: for each uncolored vertex u
and color c the search keeps `load[u][c]`, the units from in-neighbors
colored c, and `reasons[u][c]`, the constraints forbidding c (that load
reaching u's scale, and each out-neighbor colored c that an arc
from u would push to 1), plus `nblocked[u]`, the colors with a reason.
Coloring a vertex updates them for its neighbors and the in-neighbors
of its same-colored out-neighbors, and backtracking undoes that in
stack order, so a vertex costs O(1) to examine (DSatur bookkeeping;
Brélaz, CACM 1979).  The rule walks only the uncolored vertices, kept in
priority order in a doubly linked list that backtracking restores
(Knuth's dancing links), so colored vertices cost nothing.
Witness colors are renamed by first use in vertex-index order, so
returned witnesses are canonical and stable across runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InstanceTooLargeError, PreconditionError, guard_vertices
from .generators import reduce_defective
from .graph import Coloring, SolveResult, UndirectedWeightedGraph, WeightedDigraph, is_valid_coloring

DEFAULT_SEARCH_LIMIT = 16
DEFAULT_CHROMATIC_LIMIT = 20


def exact_chi_w(
    G: WeightedDigraph,
    k_limit: int | None = None,
    *,
    max_n: int = DEFAULT_SEARCH_LIMIT,
    work_limit: int | None = None,
) -> SolveResult | None:
    """Minimum number of colors in a valid coloring of G, with witness.

    Tries k = 1, 2, ... in turn; each decision runs a backtracking
    search over each vertex's integer units (all exact).  Returns None when
    no valid coloring with at most `k_limit` colors exists; k_limit
    defaults to n, which always suffices.  Raises InstanceTooLargeError
    when G has more than `max_n` vertices, or once the vertices examined
    by the choice rule, summed over every k, exceed `work_limit` (no
    limit by default).
    """
    guard_vertices("exhaustive search", G.n, max_n)
    if k_limit is None:
        k_limit = max(1, G.n)
    if k_limit < 1:
        raise PreconditionError(f"k_limit must be >= 1, got {k_limit}")
    n = G.n
    scale = [0, *G.scale.values()]  # by vertex: v's indegree is below 1 in units below scale[v]
    # positive arcs only; each vertex's in-arcs heaviest first, as tails
    # and negated units, so the tails whose units fall in a range are a
    # slice found by bisection
    in_tails: list[list[int]] = [[] for _ in range(n + 1)]
    in_keys: list[list[int]] = [[] for _ in range(n + 1)]
    out_units: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    neighbors: list[set[int]] = [set() for _ in range(n + 1)]
    arcs = [(units, t, h) for h, pairs in G.in_units.items() for t, units in pairs if units]
    for units, t, h in sorted(arcs, reverse=True):
        in_tails[h].append(t)
        in_keys[h].append(-units)
        out_units[t].append((h, units))
        neighbors[t].add(h)
        neighbors[h].add(t)
    # scan order for the choice rule: ties on feasible colors go to the
    # most positive-weight neighbors, then the smallest index
    priority = sorted(range(1, n + 1), key=lambda v: (-len(neighbors[v]), v))
    # the vertices without a frame (the uncolored ones whenever a vertex
    # is chosen) in priority order, as a doubly linked list headed by 0:
    # pushing a vertex's frame unlinks it, and popping the frame relinks
    # it in its old place, since frames are popped in stack order
    nxt = [0] * (n + 1)
    prv = [0] * (n + 1)
    tail = 0
    for v in priority:
        nxt[tail], prv[v] = v, tail
        tail = v

    color = [0] * (n + 1)
    spent = [0] * (n + 1)  # same-colored weighted indegree of colored vertices
    # kept for uncolored vertices: load[u][c], the units from in-neighbors
    # colored c; reasons[u][c], the constraints forbidding c; nblocked[u],
    # the colors with a reason.  A colored vertex's counts are left as they
    # were, which is right again once it is uncolored, since colors are
    # undone in stack order.
    load: list[dict[int, int]] = [{} for _ in range(n + 1)]
    reasons: list[dict[int, int]] = [{} for _ in range(n + 1)]
    nblocked = [0] * (n + 1)

    def mark(u: int, c: int, d: int) -> None:
        count = reasons[u].get(c, 0)
        reasons[u][c] = count + d
        if not count or not count + d:  # c became, or stopped being, forbidden
            nblocked[u] += d

    def shift(v: int, c: int, d: int) -> None:
        """Add (d = 1) or take back (d = -1) the constraints of v colored c."""
        for h, units in out_units[v]:
            ch = color[h]
            if not ch:
                before = load[h].get(c, 0)
                load[h][c] = after = before + d * units
                if (before >= scale[h]) != (after >= scale[h]):
                    mark(h, c, d)
            elif ch == c:
                # h's same-colored indegree moves between low and high, so
                # h starts or stops forbidding c to each uncolored
                # in-neighbor t with low < scale[h] - units(t -> h) <= high
                low = spent[h]
                spent[h] = high = low + d * units
                if d < 0:
                    low, high = high, low
                keys = in_keys[h]
                first = bisect_right(keys, low - scale[h])
                for t in in_tails[h][first : bisect_right(keys, high - scale[h])]:
                    if not color[t]:
                        mark(t, c, d)
        # v forbids c to each uncolored in-neighbor t with
        # spent[v] + units(t -> v) >= scale[v]
        for t in in_tails[v][: bisect_right(in_keys[v], spent[v] - scale[v])]:
            if not color[t]:
                mark(t, c, d)

    limit = work_limit if work_limit is not None else float("inf")
    examined = 0
    for k in range(1, k_limit + 1):
        # one frame per colored vertex, in coloring order:
        # [vertex, untried colors (largest first), max_used before it]
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
            u = nxt[0]
            while u:
                examined += 1
                feasible = top - nblocked[u]
                if feasible < fewest:
                    fewest = feasible
                    if not fewest:
                        break
                    v = u
                u = nxt[u]
            if examined > limit:
                raise InstanceTooLargeError(
                    f"exhaustive search gave up after {examined} examined vertices"
                    f" (limit {work_limit})",
                    size=examined,
                    limit=work_limit,
                )
            if fewest:
                untried = [c for c in range(top, 0, -1) if not reasons[v].get(c)]
                frames.append([v, untried, max_used])
                nxt[prv[v]], prv[nxt[v]] = nxt[v], prv[v]
            # color the newest frame's vertex with its next untried color,
            # backtracking over frames whose colors are all tried
            while frames:
                v, untried, max_used = frames[-1]
                if color[v]:
                    shift(v, color[v], -1)
                    color[v] = 0
                if untried:
                    c = untried.pop()
                    color[v] = c
                    spent[v] = load[v].get(c, 0)
                    shift(v, c, 1)
                    if c > max_used:
                        max_used = c
                    break
                frames.pop()
                nxt[prv[v]] = prv[nxt[v]] = v
            else:
                break
    return None


def is_defective_coloring(H: UndirectedWeightedGraph, coloring: Coloring, d: int) -> bool:
    """True iff every vertex has at most d neighbors of its own color.

    Edge weights are ignored; this is validity on the reduction
    `reduce_defective`, whose weight 1/(d+1) on both arcs of each edge
    lets a vertex share its color with at most d neighbors.
    """
    return is_valid_coloring(reduce_defective(H, d), coloring)


def exact_defective_number(H: UndirectedWeightedGraph, d: int) -> SolveResult:
    """Minimum k admitting a coloring where each vertex has <= d same-colored
    neighbors, solved as `exact_chi_w` on the reduction `reduce_defective`
    under that search's 16-vertex guard."""
    return exact_chi_w(reduce_defective(H, d))


def exact_chromatic_underlying(H: UndirectedWeightedGraph) -> int:
    """Exact chromatic number of H restricted to its positive-weight edges.

    That is the d = 0 case of `reduce_defective` (every such edge at
    weight 1 in both directions) solved by `exact_chi_w`; zero-weight
    edges never constrain a coloring.  Refuses above
    DEFAULT_CHROMATIC_LIMIT (20) vertices.
    """
    positive = UndirectedWeightedGraph(H.n, [(u, v, w) for u, v, w in H.edges if w > 0])
    return exact_chi_w(reduce_defective(positive, 0), max_n=DEFAULT_CHROMATIC_LIMIT).chromatic
