"""Slow reference implementations used to cross-check the library.

Everything here recomputes answers from first principles with plain
enumeration.  None of it calls the library's solvers or validators, so a
bug would have to appear independently in two very different pieces of
code before a comparison test could pass by accident.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product
from math import floor, isqrt, lcm

from wicolor import (
    DecompositionViolation,
    DuplicateEdgeError,
    FormatError,
    InstanceTooLargeError,
    PreconditionError,
    SolveResult,
    TreeDecomposition,
    UndirectedWeightedGraph,
    WeightedDigraph,
)


def reference_violations(
    G: WeightedDigraph, colors: dict[int, int]
) -> list[tuple[int, Fraction]]:
    """Vertices whose same-colored weighted indegree reaches 1, by
    definition, summed in Fractions."""
    incoming: dict[int, Fraction] = {v: Fraction(0) for v in range(1, G.n + 1)}
    for tail, head, weight in G.arcs:
        if colors[tail] == colors[head]:
            incoming[head] += weight
    return [(v, total) for v, total in sorted(incoming.items()) if total >= 1]


def reference_as_weight(value):
    """`graph.as_weight` as it was before it range-checked on integers: the
    type checks in this order, then one Fraction comparison."""
    if isinstance(value, float):
        raise TypeError(f"float weight {value!r} refused; pass a Fraction or a string")
    if isinstance(value, bool):
        raise TypeError(f"boolean weight {value!r} refused; pass 0 or 1")
    if isinstance(value, Fraction):
        w = value
    elif isinstance(value, int):
        w = Fraction(value)
    elif isinstance(value, str):
        try:
            w = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse weight {value!r}") from exc
    else:
        raise TypeError(f"unsupported weight type {type(value).__name__}")
    if not 0 <= w <= 1:
        raise ValueError(f"weight {w} outside [0, 1]")
    return w


def reference_parse_graph(text: str):
    """`formats.parse_graph_auto` as it was before each arc was checked
    once: every line stripped, then split; each endpoint through
    `parse_int`; each distinct weight spelling through `Fraction(token)`
    and one Fraction range check, once per file; then one graph
    constructor call."""

    def content_lines(text):
        out = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            out.append((line_no, stripped.split()))
        return out

    def parse_int(token, line_no, what, minimum=0):
        try:
            value = int(token)
        except ValueError:
            raise FormatError(f"{what} {token!r} is not an integer", line_no) from None
        if value < minimum:
            raise FormatError(f"{what} {value} below {minimum}", line_no)
        return value

    def parse_weight(token, line_no):
        try:
            w = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"weight {token!r} is not a rational", line_no) from None
        if not 0 <= w <= 1:
            raise FormatError(f"weight {token} outside [0, 1]", line_no)
        return w

    lines = content_lines(text)
    head = lines[0][1] if lines else []
    if len(head) < 2 or head[0] != "p":
        raise FormatError("missing header line")
    if head[1] not in ("wig", "wug"):
        raise FormatError(f"unknown graph kind {head[1]!r}", lines[0][0])
    header_kind = head[1]
    head_no = lines[0][0]
    if len(head) != 4 or head[0] != "p":
        raise FormatError(f"expected header 'p {header_kind} <n> <m>'", head_no)
    n = parse_int(head[2], head_no, "vertex count")
    m = parse_int(head[3], head_no, "edge count")
    triples = []
    weights = {}
    for line_no, tokens in lines[1:]:
        if tokens[0] == "p":
            raise FormatError("duplicate header", line_no)
        if tokens[0] != "e":
            raise FormatError(f"unexpected line {' '.join(tokens)!r}", line_no)
        if len(tokens) != 4:
            raise FormatError("edge line needs exactly 'e <a> <b> <weight>'", line_no)
        if len(triples) == m:
            raise FormatError(f"more than the declared {m} edge lines", line_no)
        a = parse_int(tokens[1], line_no, "endpoint", minimum=1)
        b = parse_int(tokens[2], line_no, "endpoint", minimum=1)
        if a > n or b > n:
            raise FormatError(f"endpoint outside 1..{n}", line_no)
        if a == b:
            raise FormatError(f"self-loop at vertex {a}", line_no)
        w = weights.get(tokens[3])
        if w is None:
            w = weights[tokens[3]] = parse_weight(tokens[3], line_no)
        triples.append((a, b, w))
    if len(triples) != m:
        raise FormatError(f"declared {m} edges but found {len(triples)}")
    graph_type = WeightedDigraph if header_kind == "wig" else UndirectedWeightedGraph
    try:
        return graph_type(n, triples)
    except DuplicateEdgeError as exc:
        raise FormatError(str(exc), lines[1 + exc.index][0]) from None


def reference_fixed_point(G: WeightedDigraph, bits: int):
    """The first arc whose weight times 2^bits is not an integer, or None."""
    return next(((t, h, w) for t, h, w in G.arcs if (w * 2**bits).denominator != 1), None)


def reference_upper_bound_sum_weights(G: WeightedDigraph) -> int:
    """`bounds.upper_bound_sum_weights` as it was before it read each
    vertex's units: one exact sum over every arc, whose denominator is
    the lcm of all of them."""
    return 2 * isqrt(floor(2 * sum(w for _, _, w in G.arcs))) + 1


def global_units(G: WeightedDigraph):
    """The integer view the solvers read before each vertex had its own
    unit: the lcm of every weight denominator, and for each vertex the
    (tail, weight times that lcm) pairs of its in-arcs, in arc order."""
    scale = lcm(1, *{w.denominator for _, _, w in G.arcs})
    acc: dict[int, list[tuple[int, int]]] = {v: [] for v in G.vertices}
    for t, h, w in G.arcs:
        acc[h].append((t, w.numerator * (scale // w.denominator)))
    return scale, {v: tuple(pairs) for v, pairs in acc.items()}


def brute_chi_w(G: WeightedDigraph, k_max: int | None = None):
    """Minimum palette size by direct enumeration of every total coloring."""
    limit = G.n if k_max is None else min(k_max, max(G.n, 1))
    if G.n == 0:
        return 1, {}
    for k in range(1, limit + 1):
        for assignment in product(range(1, k + 1), repeat=G.n):
            colors = {v: assignment[v - 1] for v in range(1, G.n + 1)}
            if not reference_violations(G, colors):
                return k, colors
    return None


def reference_chi_w(
    G: WeightedDigraph,
    k_limit: int | None = None,
    *,
    max_n: int = 16,
    work_limit: int | None = None,
) -> SolveResult | None:
    """`exact_chi_w` as it was before it kept forbidden-color counts.

    At every search node its choice rule rebuilds each uncolored
    vertex's load by color and set of blocked colors from scratch.  Kept
    as the reference the incremental search must equal: the same
    answers, witnesses, examined counts and refusals.
    """
    if G.n > max_n:
        raise InstanceTooLargeError(
            f"exhaustive search is limited to {max_n} vertices, got {G.n}",
            size=G.n,
            limit=max_n,
        )
    if k_limit is None:
        k_limit = max(1, G.n)
    if k_limit < 1:
        raise PreconditionError(f"k_limit must be >= 1, got {k_limit}")
    scale, units_by_head = global_units(G)
    n = G.n
    in_units: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    out_units: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    neighbors: list[set[int]] = [set() for _ in range(n + 1)]
    for h, pairs in units_by_head.items():
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


def defect_of(H: UndirectedWeightedGraph, colors: dict[int, int], v: int) -> int:
    """Number of neighbors of v sharing v's color; weights play no role."""
    return sum(
        1
        for a, b, _ in H.edges
        if (a == v or b == v) and colors[a] == colors[b]
    )


def brute_defective_ok(H: UndirectedWeightedGraph, d: int, k: int) -> bool:
    for assignment in product(range(1, k + 1), repeat=H.n):
        colors = {v: assignment[v - 1] for v in range(1, H.n + 1)}
        if all(defect_of(H, colors, v) <= d for v in range(1, H.n + 1)):
            return True
    return False


def brute_defective_number(H: UndirectedWeightedGraph, d: int) -> int:
    if H.n == 0:
        return 1
    for k in range(1, H.n + 1):
        if brute_defective_ok(H, d, k):
            return k
    raise AssertionError("n colors always suffice")


def brute_chromatic(H: UndirectedWeightedGraph) -> int:
    """Ordinary chromatic number; edges of weight zero impose nothing."""
    hard = [(a, b) for a, b, w in H.edges if w > 0]
    if H.n == 0 or not hard:
        return 1 if H.n else 1
    for k in range(1, H.n + 1):
        for assignment in product(range(1, k + 1), repeat=H.n):
            if all(assignment[a - 1] != assignment[b - 1] for a, b in hard):
                return k
    raise AssertionError("n colors always suffice")


def brute_partitionable(values) -> bool:
    """Can the multiset be split into two halves of equal sum?"""
    values = list(values)
    total = sum(values)
    if total % 2:
        return False
    for mask in range(1 << len(values)):
        picked = sum(values[i] for i in range(len(values)) if mask >> i & 1)
        if 2 * picked == total:
            return True
    return False


def _adjacency(graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, graph.n + 1)}
    pairs = (
        ((a, b) for a, b, _ in graph.edges)
        if isinstance(graph, UndirectedWeightedGraph)
        else ((t, h) for t, h, _ in graph.arcs)
    )
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def elimination_order_within(graph, limit: int) -> list[int] | None:
    """An elimination order whose every step has degree <= limit, or None.

    Exhaustive search over partial eliminations; the memo key is the
    current fill-in graph itself, so no order is explored twice.
    """
    seen: set[frozenset] = set()

    def rec(adj: dict[int, set[int]]) -> list[int] | None:
        if not adj:
            return []
        key = frozenset((v, frozenset(nb)) for v, nb in adj.items())
        if key in seen:
            return None
        seen.add(key)
        for v in sorted(adj):
            nbs = adj[v]
            if len(nbs) > limit:
                continue
            nxt = {u: set(nb) for u, nb in adj.items() if u != v}
            for a in nbs:
                nxt[a].discard(v)
                nxt[a].update(nbs - {a})
            rest = rec(nxt)
            if rest is not None:
                return [v] + rest
        return None

    return rec(_adjacency(graph))


def treewidth_by_elimination(graph) -> int:
    """Exact treewidth via the elimination-order characterization."""
    if graph.n == 0:
        return -1
    for limit in range(graph.n):
        if elimination_order_within(graph, limit) is not None:
            return limit
    raise AssertionError("limit n-1 always admits an order")


def _eliminate(adj: dict[int, set[int]], v: int) -> None:
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
    for u in nbrs:
        for w in nbrs:
            if u < w:
                adj[u].add(w)
                adj[w].add(u)


def _is_simplicial(adj: dict[int, set[int]], v: int) -> bool:
    nbrs = list(adj[v])
    return all(
        w in adj[u] for i, u in enumerate(nbrs) for w in nbrs[i + 1 :]
    )


def _fill(adj: dict[int, set[int]], v: int) -> int:
    nbrs = sorted(adj[v])
    return sum(1 for i, u in enumerate(nbrs) for w in nbrs[i + 1 :] if w not in adj[u])


def reference_greedy_order(adj: dict[int, set[int]], strategy: str) -> list[int]:
    """Greedy elimination order by a full rescan of every vertex per step.

    The loop `min-degree` and `min-fill` used before their scores were
    kept incrementally, kept as the reference their orders must equal:
    each step eliminates the vertex of least (score, index), the score
    being its current degree or the number of fill edges it would add.
    """
    score = {"min-degree": lambda a, v: len(a[v]), "min-fill": _fill}[strategy]
    adj = {v: set(s) for v, s in adj.items()}
    order = []
    while adj:
        v = min(adj, key=lambda u: (score(adj, u), u))
        order.append(v)
        _eliminate(adj, v)
    return order


def reference_exact_order(adj: dict[int, set[int]]) -> list[int]:
    """Elimination order of minimum width, via subset dynamic programming.

    The min-max formulation `exact-small` used before it became a
    decision search, kept as the reference its orders must equal.
    Simplicial vertices are peeled first (always safe: eliminating one
    adds no fill and its degree lower-bounds the width anyway).  The
    remainder is solved exactly: f(S) = min over next vertex v of
    max(degree of v after eliminating S, f(S + v)), with elimination
    neighborhoods computed as reachability through S.  Among optimal
    orders, each step takes the lowest-index vertex that keeps the width.
    """
    adj = {v: set(s) for v, s in adj.items()}
    prefix: list[int] = []
    while True:
        v = next((u for u in sorted(adj) if _is_simplicial(adj, u)), None)
        if v is None:
            break
        prefix.append(v)
        _eliminate(adj, v)
    if not adj:
        return prefix

    rest = sorted(adj)
    index = {v: i for i, v in enumerate(rest)}
    m = len(rest)
    masks = [0] * m
    for v in rest:
        for u in adj[v]:
            masks[index[v]] |= 1 << index[u]
    full = (1 << m) - 1

    def neighbors_through(i: int, eliminated: int) -> int:
        seen = (1 << i) | masks[i]
        frontier = masks[i] & eliminated
        result = masks[i] & ~eliminated
        while frontier:
            j = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            fresh = masks[j] & ~seen
            seen |= fresh
            frontier |= fresh & eliminated
            result |= fresh & ~eliminated
        return result & ~(1 << i)

    memo: dict[int, int] = {full: -1}

    def best_width(eliminated: int) -> int:
        cached = memo.get(eliminated)
        if cached is not None:
            return cached
        value = m  # any order stays below m
        for i in range(m):
            bit = 1 << i
            if eliminated & bit:
                continue
            deg = neighbors_through(i, eliminated).bit_count()
            if deg >= value:
                continue
            value = min(value, max(deg, best_width(eliminated | bit)))
        memo[eliminated] = value
        return value

    target = best_width(0)
    order = prefix
    eliminated = 0
    while eliminated != full:
        for i in range(m):
            bit = 1 << i
            if eliminated & bit:
                continue
            deg = neighbors_through(i, eliminated).bit_count()
            if deg <= target and best_width(eliminated | bit) <= target:
                order.append(rest[i])
                eliminated |= bit
                break
        else:
            raise AssertionError("optimal elimination order reconstruction failed")
    return order


def reference_search_order(adj: dict[int, set[int]]) -> list[int]:
    """Elimination order of minimum width, via a decision search per width.

    `exact-small` before its search carried elimination-graph masks and
    forced almost-simplicial eliminations, kept verbatim (only `_fill`
    stands for the package's `_fill_count`) as the reference its orders
    must equal on graphs too large for `reference_exact_order`.

    Simplicial vertices are peeled first (always safe: eliminating one
    adds no fill and its degree lower-bounds the width anyway).  On the
    remainder, widths t are tried upward from its minimum degree (a lower
    bound): feasible(S) asks whether the vertices outside the eliminated
    set S can follow in some order of width <= t.  It holds once at most
    t + 1 vertices remain; otherwise it tries each remaining vertex in
    index order whose degree after eliminating S, computed as
    reachability through S, is at most t.  Only the subsets that fail
    are remembered.  The first t that succeeds is the minimum width, and
    the order takes, step by step, the first vertex of degree <= t whose
    elimination leaves a feasible set.
    """
    adj = {v: set(s) for v, s in adj.items()}
    prefix: list[int] = []
    while True:
        v = next((u for u in sorted(adj) if _fill(adj, u) == 0), None)
        if v is None:
            break
        prefix.append(v)
        _eliminate(adj, v)
    if not adj:
        return prefix

    rest = sorted(adj)
    index = {v: i for i, v in enumerate(rest)}
    m = len(rest)
    masks = [0] * m
    for v in rest:
        for u in adj[v]:
            masks[index[v]] |= 1 << index[u]
    full = (1 << m) - 1

    def neighbors_through(i: int, eliminated: int) -> int:
        seen = (1 << i) | masks[i]
        frontier = masks[i] & eliminated
        result = masks[i] & ~eliminated
        while frontier:
            j = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            fresh = masks[j] & ~seen
            seen |= fresh
            frontier |= fresh & eliminated
            result |= fresh & ~eliminated
        return result & ~(1 << i)

    def feasible(eliminated: int) -> bool:
        if m - eliminated.bit_count() <= target + 1:
            return True
        if eliminated in failed:
            return False
        for i in range(m):
            bit = 1 << i
            if not eliminated & bit and neighbors_through(i, eliminated).bit_count() <= target:
                if feasible(eliminated | bit):
                    return True
        failed.add(eliminated)
        return False

    target = min(len(adj[v]) for v in rest)
    failed: set[int] = set()
    while not feasible(0):
        target += 1
        failed = set()
    order = prefix
    eliminated = 0
    while eliminated != full:
        for i in range(m):
            bit = 1 << i
            if eliminated & bit:
                continue
            deg = neighbors_through(i, eliminated).bit_count()
            if deg <= target and feasible(eliminated | bit):
                order.append(rest[i])
                eliminated |= bit
                break
        else:
            raise AssertionError("optimal elimination order reconstruction failed")
    return order


def reference_decomposition_from_order(n: int, adj: dict[int, set[int]], order: list[int]) -> TreeDecomposition:
    """The decomposition of an elimination order, by eliminating it again.

    The package's `_decomposition_from_order` before the order functions
    recorded each bag as its vertex went, kept verbatim as the reference
    their decompositions must equal: bag i is the i-th vertex of `order`
    with its neighbors once the vertices before it are eliminated, its
    tree edge goes to the bag of the earliest of those neighbors in the
    order (or, with none, to the next bag), and the final bag is
    re-indexed to sit first as the root.
    """
    if n == 0:
        return TreeDecomposition([frozenset()])
    adj = {v: set(s) for v, s in adj.items()}
    position = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    for pos, v in enumerate(order):
        nbrs = set(adj[v])
        bags.append(frozenset({v} | nbrs))
        if nbrs:
            successor = min(nbrs, key=position.__getitem__)
            edges.append((pos, position[successor]))
        elif pos + 1 < n:
            edges.append((pos, pos + 1))
        _eliminate(adj, v)
    # re-index so the final (root) bag sits first, matching the file convention
    root = n - 1
    perm = [root] + [i for i in range(n) if i != root]
    new_index = {old: new for new, old in enumerate(perm)}
    return TreeDecomposition(
        [bags[old] for old in perm],
        [(new_index[a], new_index[b]) for a, b in edges],
        root=0,
    )


def reference_maximal_cliques(graph) -> set[frozenset[int]]:
    """Every maximal clique of the underlying graph, by testing every vertex subset."""
    adj = _adjacency(graph)
    vertices = sorted(adj)
    cliques = set()
    for mask in range(1, 1 << len(vertices)):
        members = {v for i, v in enumerate(vertices) if mask >> i & 1}
        if all(members - {v} <= adj[v] for v in members) and not any(
            members <= adj[u] for u in vertices if u not in members
        ):
            cliques.add(frozenset(members))
    return cliques


def reference_compact(D: TreeDecomposition) -> TreeDecomposition:
    """`D` with every tree edge contracted whose one bag lies inside the other.

    Contract one edge at a time until none is left: take the first bag
    in preorder (from the root, children ascending) that lies inside a
    tree neighbor's bag, and merge it into the lowest indexed such
    neighbor.  That neighbor keeps its own (larger) bag and takes over
    the merged bag's other tree edges and, if the merged bag was the
    root, the root.  The root is then re-indexed to sit first and the
    other kept bags follow in their old order.
    """
    bags = dict(enumerate(D.bags))
    adj: dict[int, set[int]] = {i: set() for i in range(len(D.bags))}
    for a, b in D.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    root = D.root
    while True:
        merge = None
        stack, seen = [root], {root}
        while stack and merge is None:
            a = stack.pop()
            covers = sorted(b for b in adj[a] if bags[a] <= bags[b])
            if covers:
                merge = a, covers[0]
            kids = sorted(adj[a] - seen)
            seen.update(kids)
            stack.extend(reversed(kids))
        if merge is None:
            break
        a, b = merge
        for c in adj.pop(a):
            adj[c].discard(a)
            if c != b:
                adj[c].add(b)
                adj[b].add(c)
        del bags[a]
        if root == a:
            root = b
    kept = [root] + [i for i in sorted(bags) if i != root]
    new_index = {old: new for new, old in enumerate(kept)}
    edges = {tuple(sorted((new_index[a], new_index[b]))) for a in adj for b in adj[a]}
    return TreeDecomposition([bags[i] for i in kept], sorted(edges), root=0)


# -- the tree DPs' per-bag loops as they were written first ------------------
#
# Each function below is the library's code before its per-bag loops were
# rewritten without closures, generator expressions or per-bag sets, kept
# verbatim (as a function of what it read from the solver) so that the
# rewritten loops can be compared with it on whole solves.


def dyadic_ladder(k: int, bits: int, seed: int) -> WeightedDigraph:
    """The benchmark's seeded dyadic 2 x k ladder (`perfbench/workloads.py`,
    `ladder_digraph`): column j holds vertices 2j+1 (top) and 2j+2
    (bottom), and both directions of every edge weigh a seeded multiple
    of 2^-bits in (0, 1]."""
    rng = random.Random(seed)
    scale = 1 << bits
    arcs = []
    for j in range(k):
        top, bottom = 2 * j + 1, 2 * j + 2
        pairs = [(top, bottom)]
        if j + 1 < k:
            pairs += [(top, top + 2), (bottom, bottom + 2)]
        for u, v in pairs:
            arcs.append((u, v, Fraction(rng.randint(1, scale), scale)))
            arcs.append((v, u, Fraction(rng.randint(1, scale), scale)))
    return WeightedDigraph(2 * k, arcs)


def reference_layout(D: TreeDecomposition, tracked):
    """`TreeDP.__init__`'s shared_set, order, position and kids, one
    comprehension each."""
    shared = [
        frozenset() if p is None else tracked[i] & tracked[p] for i, p in enumerate(D.parent)
    ]
    order = [tuple(sorted(s)) + tuple(sorted(tracked[i] - s)) for i, s in enumerate(shared)]
    position = [{v: p for p, v in enumerate(vertices)} for vertices in order]
    kids = [
        [(c, tuple(position[i][v] for v in order[c][: len(shared[c])])) for c in D.children[i]]
        for i in range(len(order))
    ]
    return shared, order, position, kids


def reference_back(G: WeightedDigraph, D: TreeDecomposition, order, position):
    """`IndegreeSolver._back`, each arc placed by `min` and `max` of its
    endpoints' positions, in the units of `global_units`."""
    _, units_by_head = global_units(G)
    result = []
    for i, bag in enumerate(D.bags):
        back = [[] for _ in order[i]]
        for h in bag:
            for t, units in units_by_head[h]:
                if units > 0:
                    a, b = position[i][t], position[i][h]
                    back[max(a, b)].append((min(a, b), b, units))
        result.append(back)
    return result


def reference_charges(G: WeightedDigraph, D: TreeDecomposition, position):
    """`BudgetSolver`'s charge_list and _charges, each bag testing its
    arcs against its parent's bag, in the units of `global_units`."""
    _, units_by_head = global_units(G)
    charge_list, positioned = [], []
    for i, bag in enumerate(D.bags):
        parent = D.bags[D.parent[i]] if D.parent[i] is not None else frozenset()
        charges = sorted(
            (t, h, units)
            for h in bag
            for t, units in units_by_head[h]
            if t in bag and not (t in parent and h in parent)
        )
        charge_list.append(charges)
        positioned.append([(position[i][t], position[i][h], u) for t, h, u in charges if u])
    return charge_list, positioned


def reference_colorings(back, scale: int, k: int, key):
    """`IndegreeSolver._colorings` for one bag's `back` lists, with the
    `charge` closure that adds or removes one position's units."""
    m, ns = len(back), len(key)
    colors = list(key) + [0] * (m - ns)
    spent = [0] * m  # same-color in-units of each bag vertex so far

    def charge(p: int, sign: int) -> bool:
        ok = True
        for q, head, units in back[p]:
            if colors[q] == colors[p]:
                spent[head] += sign * units
                ok = ok and spent[head] < scale
        return ok

    if not all(charge(p, 1) for p in range(ns)):
        return  # the inherited colors alone already violate
    p = ns
    while True:
        if p == m:
            yield colors
        elif colors[p] < k:
            colors[p] += 1
            if charge(p, 1):
                p += 1
            else:
                charge(p, -1)
            continue
        else:
            colors[p] = 0
        p -= 1  # position p is exhausted: back up one position
        if p < ns:
            return
        charge(p, -1)


def reference_minimal(pairs):
    """`fpt_budget._minimal`: the antichain of componentwise-minimal
    vectors among the (vector, origin) pairs, each mapped to the first
    origin it came with; ordered by sum, a dominating vector first."""
    origin = dict(reversed(pairs))  # the first origin of a vector wins
    kept = {}
    for vec in sorted({vec for vec, _ in pairs}, key=sum):
        if not any(all(a <= b for a, b in zip(low, vec)) for low in kept):
            kept[vec] = origin[vec]
    return kept


def _reference_first_use(colors):
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(c, len(relabel) + 1) for c in colors])


def reference_budget_witness(solver):
    """`BudgetSolver._witness` on the solver's tables, mapping each bag's
    canonical colors back through two sets and a sorted list."""
    k = solver.k
    witness = {}
    stack = [(solver.decomposition.root, (), ())]
    while stack:
        bag, inherited, demand = stack.pop()
        ns = len(inherited)
        canon = _reference_first_use(inherited)
        entry = solver.tables[bag].get(canon, {}).get(demand)
        if entry is None:
            raise AssertionError(f"no stored entry for an accepted state of bag {bag}")
        colors, picks = entry
        # canonical colors above `top` are new: they take the real
        # colors not inherited, both in ascending order
        top = max(canon, default=0)
        real = dict(zip(canon, inherited))
        real.update(zip(range(top + 1, k + 1), sorted(set(range(1, k + 1)) - set(inherited))))
        real_colors = [real[c] for c in colors]
        for v, c in zip(solver.order[bag][ns:], real_colors[ns:]):
            if v in witness:
                raise AssertionError(f"vertex {v} colored twice")
            witness[v] = c
        for (child, pos), pick in zip(solver.kids[bag], picks):
            stack.append((child, tuple([real_colors[p] for p in pos]), pick))
    return witness


# -- decomposition set-up as it was first written ---------------------------
#
# validate_decomposition formed every pair of vertices in every bag, and
# TreeDecomposition derived parent, children and preorder in three passes.
# Both are kept here to compare the one-pass, pair-free forms with.


def reference_validate_decomposition(
    G: WeightedDigraph, D: TreeDecomposition
) -> list[DecompositionViolation]:
    """All violations of the three decomposition properties, empty iff valid.

    Bags must name only vertices of G (reported as property 0).  Listed
    in (property, witness) order so reports are reproducible.  A single
    flaw can break several properties at once; every broken one is
    reported.
    """
    violations: list[DecompositionViolation] = []
    membership: dict[int, set[int]] = {v: set() for v in G.vertices}
    foreign: set[int] = set()
    for i, bag in enumerate(D.bags):
        for v in bag:
            if v in membership:
                membership[v].add(i)
            else:
                foreign.add(v)

    for v in foreign:
        violations.append(
            DecompositionViolation(0, v, f"vertex {v} in a bag is outside 1..{G.n}")
        )

    for v in G.vertices:
        if not membership[v]:
            violations.append(
                DecompositionViolation(1, v, f"vertex {v} appears in no bag")
            )

    covered_pairs = set()
    for bag in D.bags:
        for u in bag:
            for v in bag:
                if u < v:
                    covered_pairs.add((u, v))
    for t, h, _ in G.arcs:
        pair = (t, h) if t < h else (h, t)
        if pair not in covered_pairs:
            violations.append(
                DecompositionViolation(
                    2, pair, f"arc ({t}, {h}) endpoints never share a bag"
                )
            )

    # the holders of v are connected iff exactly one of them has its
    # parent outside the holders: each connected part has one such top
    for v in G.vertices:
        holders = membership[v]
        if sum(1 for i in holders if D.parent[i] not in holders) > 1:
            violations.append(
                DecompositionViolation(
                    3, v, f"bags containing vertex {v} are disconnected in the tree"
                )
            )

    violations.sort(key=lambda viol: (viol.property_index, _witness_key(viol.witness)))
    return violations


def _witness_key(witness: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(witness, tuple):
        return witness
    return (witness, 0)


def reference_tree_walk(count: int, tree_edges, root: int):
    """parent (BFS from the root), children (sorted from parent) and
    preorder (a DFS taking children ascending) of a tree on `count` bags."""
    adj = [[] for _ in range(count)]
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    adj = [sorted(nbrs) for nbrs in adj]
    parent = [None] * count
    seen = {root}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = cur
                queue.append(nxt)
    children = tuple(
        tuple(sorted(i for i in range(count) if parent[i] == p)) for p in range(count)
    )
    preorder = []
    stack = [root]
    while stack:
        cur = stack.pop()
        preorder.append(cur)
        stack.extend(reversed(children[cur]))
    return tuple(parent), children, tuple(preorder)
