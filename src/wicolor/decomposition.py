"""Rooted tree decompositions: construction, validation, structural queries.

A tree decomposition of a graph assigns a bag (vertex set) to each node
of a tree such that (1) every vertex lies in some bag, (2) both
endpoints of every arc share some bag, and (3) the bags containing any
fixed vertex induce a connected subtree.  Width is the largest bag size
minus one.

Decompositions here are rooted: the dynamic programs in this package key
each bag's table by the colors it shares with its parent, and read their
witnesses from the root down; `TreeDP` holds that layout, the decision
loop and the witness read both share.  Bag indices are 0-based internally (the text format is
1-based, see `formats`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DuplicateEdgeError, PreconditionError, guard_vertices
from .graph import Coloring, SolveResult, UndirectedWeightedGraph, WeightedDigraph, _check_int

EXACT_SMALL_LIMIT = 20
STRATEGIES = ("min-degree", "min-fill", "exact-small")


@dataclass(frozen=True, init=False)
class TreeDecomposition:
    """Immutable rooted tree decomposition.

    `bags[i]` is the vertex set of bag i; `tree_edges` are unordered
    index pairs forming a tree over all bags; `root` selects the bag
    the dynamic programs start from.  Structural validity against a
    concrete graph is a separate check (`validate_decomposition`); the
    constructor checks that each bag vertex and edge endpoint is an int
    (TypeError otherwise, as for a graph's vertices) and that each edge
    joins two distinct bags once, then links the tree with `_link`.  The
    `.td` parser, the builder and `root_at` link theirs without the checks.
    """

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int = 0

    def __init__(
        self,
        bags: Iterable[Iterable[int]],
        tree_edges: Iterable[tuple[int, int]] = (),
        root: int = 0,
    ):
        bag_list = []
        for given in bags:
            # checked as given: a frozenset would merge 2.0 into 2, True into 1
            members = given if type(given) is frozenset else tuple(given)
            if not {int}.issuperset(map(type, members)):
                for v in members:
                    _check_int(v, "bag vertex")
            bag_list.append(frozenset(members))
        count = len(bag_list)
        if not count:
            raise ValueError("a decomposition needs at least one bag")
        edges: set[tuple[int, int]] = set()
        for a, b in tree_edges:
            if type(a) is not int or type(b) is not int:
                _check_int(a, "tree edge endpoint")
                _check_int(b, "tree edge endpoint")
            if not (0 <= a < count and 0 <= b < count):
                raise ValueError(f"tree edge ({a}, {b}) references a missing bag")
            if a == b:
                raise ValueError(f"self-loop at bag {a}")
            e = (a, b) if a < b else (b, a)
            if e in edges:
                raise DuplicateEdgeError(f"duplicate tree edge {e}")
            edges.add(e)
        _link(self, tuple(bag_list), edges, root)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def root_at(self, i: int) -> TreeDecomposition:
        """Same bags and tree, re-rooted at bag i."""
        return _link(object.__new__(TreeDecomposition), self.bags, self.tree_edges, i)


def _link(D: TreeDecomposition, bags: tuple, edges: Iterable[tuple[int, int]], root: int) -> TreeDecomposition:
    """Give `D` the bags, the checked edges (smaller bag first) sorted and
    the root, and return it.  Past the edge-count and root rules, one walk
    from the root sets `parent` (None at the root), `children` (ascending,
    fixing child ordinals) and `preorder` in time linear in the bag count
    past the sort, on any edge set: it refuses at the first bag reached twice."""
    count = len(bags)
    canon = sorted(edges)
    if len(canon) != count - 1:
        raise ValueError(f"{len(canon)} tree edges cannot form a tree on {count} bags")
    if not isinstance(root, int) or isinstance(root, bool) or not 0 <= root < count:
        raise ValueError(f"root index {root!r} out of range")
    object.__setattr__(D, "bags", bags)
    object.__setattr__(D, "tree_edges", tuple(canon))
    object.__setattr__(D, "root", root)
    # each bag's neighbors, ascending since the edges are sorted
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for a, b in canon:
        adjacency[a].append(b)
        adjacency[b].append(a)
    # with count-1 edges, reaching every bag exactly once proves a tree
    parent: list[int | None] = [None] * count
    children: list[tuple[int, ...]] = [()] * count
    preorder: list[int] = []
    reached = bytearray(count)
    reached[root] = 1
    stack = [root]
    while stack:
        cur = stack.pop()
        preorder.append(cur)
        up = parent[cur]
        kids = children[cur] = tuple([b for b in adjacency[cur] if b != up])
        for b in kids:
            if reached[b]:
                raise ValueError("tree edges do not connect all bags")
            reached[b] = 1
            parent[b] = cur
        stack += reversed(kids)
    if len(preorder) != count:
        raise ValueError("tree edges do not connect all bags")
    object.__setattr__(D, "parent", tuple(parent))
    object.__setattr__(D, "children", tuple(children))
    object.__setattr__(D, "preorder", tuple(preorder))
    return D


@dataclass(frozen=True)
class DecompositionViolation:
    """One broken decomposition property.

    property_index is 0 (a bag names a vertex outside 1..n), 1 (vertex
    uncovered), 2 (arc endpoints never share a bag) or 3 (bags holding a
    vertex are disconnected); witness is the vertex or arc pair in
    question.
    """

    property_index: int
    witness: int | tuple[int, int]
    message: str


def validate_decomposition(G: WeightedDigraph, D: TreeDecomposition) -> list[DecompositionViolation]:
    """All violations of the three decomposition properties, empty iff valid.

    Bags must name only vertices of G (reported as property 0).  Listed
    in (property, witness) order so reports are reproducible.  A single
    flaw can break several properties at once; every broken one is
    reported.

    No pair of bag vertices is formed: an arc's endpoints share a bag
    unless their sets of holding bags are disjoint, which scans the
    smaller set.  The cost is linear in sum |X_i| + n, plus for each arc
    the fewer of its endpoints' holding bags.
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

    # the holders of v are connected iff exactly one of them has its
    # parent outside the holders: each connected part has one such top
    for v, holders in membership.items():
        if not holders:
            violations.append(
                DecompositionViolation(1, v, f"vertex {v} appears in no bag")
            )
        elif sum(1 for i in holders if D.parent[i] not in holders) > 1:
            violations.append(
                DecompositionViolation(
                    3, v, f"bags containing vertex {v} are disconnected in the tree"
                )
            )

    for t, h, _ in G.arcs:
        if membership[t].isdisjoint(membership[h]):
            pair = (t, h) if t < h else (h, t)
            violations.append(
                DecompositionViolation(
                    2, pair, f"arc ({t}, {h}) endpoints never share a bag"
                )
            )

    # within one property every witness is an int, or for property 2 a pair
    violations.sort(key=lambda viol: (viol.property_index, viol.witness))
    return violations


def require_valid(violations: list[DecompositionViolation]) -> None:
    """Raise PreconditionError naming the first of `violations`, if any."""
    if violations:
        raise PreconditionError(
            f"decomposition invalid: {violations[0].message}", witness=violations[0]
        )


def _underlying_sets(graph: WeightedDigraph | UndirectedWeightedGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for a, b, _ in graph.arcs if isinstance(graph, WeightedDigraph) else graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _degree(adj: dict[int, set[int]], v: int) -> int:
    return len(adj[v])


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    """Pairs of v's neighbors that are not adjacent: C(d, 2) minus the
    edges among them, each seen from both ends."""
    nbrs = adj[v]
    d = len(nbrs)
    # a list sums faster than a generator at the small degrees that dominate
    return (d * (d - 1) - sum([len(adj[u] & nbrs) for u in nbrs])) // 2


def _fill_counts(adj: dict[int, set[int]]) -> dict[int, int]:
    """Every vertex's fill count: C(d, 2) minus the triangles through it.
    An edge {u, w} lies in |N(u) ∩ N(w)| triangles, and a triangle
    through v has two edges at v, so one intersection per edge, added at
    both ends, gives each vertex twice its triangle count."""
    twice = dict.fromkeys(adj, 0)
    for u, adj_u in adj.items():
        for w in adj_u:
            if u < w:
                c = len(adj_u & adj[w])
                twice[u] += c
                twice[w] += c
    return {v: (len(nbrs) * (len(nbrs) - 1) - twice[v]) // 2 for v, nbrs in adj.items()}


Eliminations = list[tuple[int, set[int]]]


def _order_greedy(adj: dict[int, set[int]], min_fill: bool, simplicial_only: bool = False) -> Eliminations:
    """Repeatedly eliminate the vertex of least score, ties to the smallest.

    The score is the degree, or with `min_fill` the number of fill edges
    the elimination would add.  Returns each vertex in elimination order
    with its neighbors at that moment, consuming `adj`.  With
    `simplicial_only` (and `min_fill`) it stops before the first vertex
    of positive fill count, leaving the rest of the graph in `adj`.

    Scores are kept in a table, and an elimination rescores only what it
    can change.  The first fill counts come from one triangle count per
    edge (`_fill_counts`).  Eliminating v changes the neighborhoods only
    of N(v) (they lose v and gain fill edges among themselves), so only
    N(v) is rescored.  A vertex x outside N(v) keeps its neighborhood,
    and each new fill edge between two of its neighbors lowers its fill
    count by exactly one, so x's fill count is lowered by that many.
    When v is simplicial (fill count 0) no edge is added, so nothing
    outside N(v) changes, and u in N(v) loses only v and with it the
    open pairs {v, w}: one for each of u's |N(u)| - |N(v)| neighbors w
    outside N[v].  So a simplicial step, the only kind min-fill takes on
    a chordal graph, costs O(|N(v)|) with no fill count recomputed.  The
    next vertex is the least (score, vertex) entry of a heap; an entry
    whose score no longer matches the table is stale and skipped.
    """
    scores = _fill_counts(adj) if min_fill else {v: _degree(adj, v) for v in adj}
    score = _fill_count if min_fill else _degree
    heap = [(s, v) for v, s in scores.items()]
    heapq.heapify(heap)
    eliminations = []
    while heap:
        s, v = heapq.heappop(heap)
        if scores.get(v) != s:
            continue
        if s and simplicial_only:
            break
        del scores[v]
        nbrs = adj.pop(v)
        eliminations.append((v, nbrs))
        if min_fill and not s:
            # v is simplicial: each u in N(v) loses the |N(u)| - |N(v)|
            # open pairs through v, counted before v leaves N(u)
            d = len(nbrs)
            for u in nbrs:
                adj_u = adj[u]
                drop = len(adj_u) - d
                adj_u.discard(v)
                if drop:
                    scores[u] -= drop
                    heapq.heappush(heap, (scores[u], u))
            continue
        lowered = set()
        for u in nbrs:
            adj_u = adj[u]
            adj_u.discard(v)
            if min_fill:
                for w in nbrs - adj_u:
                    if u < w:
                        for x in adj_u & adj[w]:
                            if x not in nbrs:
                                scores[x] -= 1
                                lowered.add(x)
            adj_u |= nbrs
            adj_u.discard(u)
        for x in lowered:
            heapq.heappush(heap, (scores[x], x))
        for u in nbrs:
            s = score(adj, u)
            if s != scores[u]:
                scores[u] = s
                heapq.heappush(heap, (s, u))
    return eliminations


# The width search of `_order_exact` works on states that map the bit of
# each vertex of an elimination graph to its neighbors' bits.  Its steps
# are plain functions, not closures over the search, so a finished build
# leaves no reference cycle for the cyclic collector to find.


def _child(masks: dict[int, int], bit: int) -> dict[int, int]:
    """The state after eliminating the vertex `bit`: its neighbors become a clique."""
    out = masks.copy()
    nbrs = out.pop(bit)
    todo = nbrs
    while todo:
        low = todo & -todo
        todo ^= low
        out[low] = (out[low] | nbrs) & ~(low | bit)
    return out


def _almost_simplicial(nbrs: int, masks: dict[int, int]) -> bool:
    # some neighbor w touches every non-adjacent pair of neighbors;
    # `cover` holds the neighbors that could still be w
    cover = nbrs
    todo = nbrs
    while todo:
        low = todo & -todo
        todo ^= low
        missed = nbrs & ~masks[low] ^ low
        if missed:
            cover &= low | missed if missed & (missed - 1) == 0 else low
            if not cover:
                return False
    return True


def _forced(masks: dict[int, int], target: int) -> int:
    """A vertex safe to eliminate without branching at width `target`, or 0 if none is."""
    candidates = []
    for bit, nbrs in masks.items():
        deg = nbrs.bit_count()
        if deg <= target:
            if deg <= 2:
                return bit
            candidates.append(bit)
    for bit in candidates:
        if _almost_simplicial(masks[bit], masks):
            return bit
    return 0


def _feasible(eliminated: int, masks: dict[int, int], target: int, failed: set[int]) -> bool:
    """Whether the state `masks`, left once `eliminated` is, has an order
    of width <= `target`; adds the sets found infeasible to `failed`."""
    chain = []
    while len(masks) > target + 1:
        if eliminated in failed:
            break
        chain.append(eliminated)
        bit = _forced(masks, target)
        if not bit:
            for bit, nbrs in masks.items():
                if nbrs.bit_count() > target or (eliminated | bit) in failed:
                    continue
                if _feasible(eliminated | bit, _child(masks, bit), target, failed):
                    return True
            break
        eliminated |= bit
        masks = _child(masks, bit)
    else:
        return True
    failed.update(chain)
    return False


def _order_exact(adj: dict[int, set[int]]) -> Eliminations:
    """Elimination order of minimum width, via a decision search per width.

    Returns each vertex in elimination order with its neighbors at that
    moment, consuming `adj`.  Simplicial vertices are peeled first
    (always safe: eliminating one adds no fill and its degree
    lower-bounds the width anyway) by min-fill's own simplicial steps,
    lowest index first, stopped at the first positive fill count.  On
    the remainder, widths t are tried upward from its minimum degree (a
    lower bound): feasible(S) asks whether the elimination graph H_S,
    what is left once the set S is eliminated, has an order of width
    <= t.  It holds once at most t + 1 vertices remain.

    The search runs on H_S itself: a state maps each remaining vertex to
    its neighbors in H_S as bitmasks, and a child state eliminates one
    vertex (its neighbors become a clique).  Before branching, a vertex v
    of degree <= t that is almost simplicial (degree <= 2, or all
    neighbors but one pairwise adjacent) is eliminated without trying the
    others.  That keeps the answer for t (Bodlaender, Koster & van den
    Eijkhof 2005): eliminating v gives the graph made by contracting v
    into that one neighbor, a minor of H_S, and the bag N[v] attaches to
    any decomposition of it.  Without such a vertex the search tries each
    remaining vertex of degree <= t in index order.  Only the subsets
    that fail are remembered, each subset along a forced chain among them.

    The first t that succeeds is the minimum width, and the order takes,
    step by step, the first vertex of degree <= t whose elimination
    leaves a feasible set (an almost simplicial one always does).
    feasible(S) depends on S alone, so the forced eliminations change the
    search time, not the order.
    """
    eliminations = _order_greedy(adj, True, simplicial_only=True)
    if not adj:
        return eliminations

    # a state maps the bit of each vertex of H_S, ascending, to its neighbors' bits
    rest = sorted(adj)
    bit_of = {v: 1 << i for i, v in enumerate(rest)}
    vertex_of = {bit: v for v, bit in bit_of.items()}
    root = dict.fromkeys(bit_of.values(), 0)
    for v in rest:
        for u in adj[v]:
            root[bit_of[v]] |= bit_of[u]

    target = min(len(adj[v]) for v in rest)
    failed: set[int] = set()
    while not _feasible(0, root, target, failed):
        target += 1
        failed = set()
    eliminated = 0
    masks = root
    # once at most t + 1 vertices are left, every one has degree <= t and
    # is feasible, so the rest follow in index order
    while masks:
        for bit, nbrs in masks.items():
            if nbrs.bit_count() > target:
                continue
            after = _child(masks, bit)
            # the state is feasible, and a forced elimination keeps it so
            if _almost_simplicial(nbrs, masks) or _feasible(eliminated | bit, after, target, failed):
                eliminations.append((vertex_of[bit], {u for b, u in vertex_of.items() if nbrs & b}))
                eliminated |= bit
                masks = after
                break
        else:
            raise AssertionError("optimal elimination order reconstruction failed")
    return eliminations


def _decomposition_from_order(eliminations: Eliminations) -> TreeDecomposition:
    """The compacted decomposition of an elimination order, root first.

    Bag i is the i-th eliminated vertex with the neighbors N_i it had
    then, as the order functions recorded them.  It links to the bag p
    of the earliest eliminated of those neighbors, or, with none, to the
    next bag.  X_p holds all of N_i (they form a clique with v_p once
    v_i is gone), so X_p lies inside X_i exactly when |X_p| = |N_i|,
    while X_i never lies inside X_p, which lacks v_i.  Such a parent p
    adds no constraint and is dropped: the first such child (lowest
    position) takes its place, inheriting its parent and its other
    children.  That settles chains too: X_p's own parent lies inside
    that child's bag only if it lies inside X_p, which p's link decides
    later in the same pass.  So no bag lies inside a tree neighbor's,
    and on a chordal graph under a perfect elimination order the bags
    are its maximal cliques (Blair & Peyton 1993).  The width is that
    of the order.

    The final bag, or the bag that took its place, is the root; it is
    re-indexed to sit first, matching the file convention, and the
    other kept bags follow in elimination order.
    """
    n = len(eliminations)
    if n == 0:
        return _link(object.__new__(TreeDecomposition), (frozenset(),), (), 0)
    position = {v: i for i, (v, _) in enumerate(eliminations)}
    # keeper[i]: the position of the bag that stands in for bag i (i itself
    # unless a child took its place); final once bag i's children are linked
    keeper = list(range(n))
    links = []
    for pos, (_, nbrs) in enumerate(eliminations):
        if pos + 1 < n:
            parent = min(map(position.__getitem__, nbrs)) if nbrs else pos + 1
            if keeper[parent] == parent and len(eliminations[parent][1]) + 1 == len(nbrs):
                keeper[parent] = keeper[pos]
            else:
                links.append((pos, parent))
    root = keeper[n - 1]
    kept = [root, *(i for i in range(n) if keeper[i] == i and i != root)]
    index = {i: new for new, i in enumerate(kept)}
    bags = tuple([frozenset((eliminations[i][0], *eliminations[i][1])) for i in kept])
    edges = [(index[keeper[a]], index[keeper[b]]) for a, b in links]
    return _link(object.__new__(TreeDecomposition), bags, [(a, b) if a < b else (b, a) for a, b in edges], 0)


def build_decomposition(
    graph: WeightedDigraph | UndirectedWeightedGraph, strategy: str = "min-fill"
) -> TreeDecomposition:
    """Compacted tree decomposition from an elimination ordering; root is bag 0.

    One bag per eliminated vertex, less every bag that lies inside a
    tree neighbor's (see `_decomposition_from_order`): no bag of the
    result lies inside a neighbor's, and the width is the order's.  On
    a chordal graph, min-fill gives one bag per maximal clique.  The
    `bags=` count of `wicolor decomp build` is this compacted count;
    a decomposition read from a file is used as given, not compacted.

    Strategies: "min-degree" and "min-fill" are fast heuristics whose
    width may exceed the treewidth; "exact-small" returns minimum width.
    Its search over elimination graphs is exponential in the worst case,
    although eliminating almost simplicial vertices without branching
    keeps sparse graphs to milliseconds, and it refuses graphs with more
    than EXACT_SMALL_LIMIT vertices.  Ties always break toward the
    smallest vertex index, so results are reproducible.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    adj = _underlying_sets(graph)
    if strategy == "exact-small":
        guard_vertices(strategy, graph.n, EXACT_SMALL_LIMIT)
        eliminations = _order_exact(adj)
    else:
        eliminations = _order_greedy(adj, strategy == "min-fill")
    return _decomposition_from_order(eliminations)


def extended_bags(D: TreeDecomposition, G: WeightedDigraph) -> tuple[frozenset[int], ...]:
    """For each bag X_i, the set V_i = X_i together with all in-neighbors of X_i."""
    out = []
    for bag in D.bags:
        acc = set(bag)
        for v in bag:
            acc |= G.in_neighbors[v]
        out.append(frozenset(acc))
    return tuple(out)


class TreeDP:
    """Base of the two tree-decomposition DPs: decide k-colorability for
    k = 1, 2, ... and stop at the first k that works (width+1 colors
    always suffice), keying bag i's table by the colors of the vertices
    it tracks, tracked[i], that it shares with its parent.

    shared_set[i] is tracked[i] ∩ tracked[parent]; order[i] lists
    tracked[i] with the shared vertices first, each part ascending, so a
    coloring's prefix is its key; position[i] maps each vertex to its
    index in order[i]; kids[i] pairs each child with the positions in
    order[i] of that child's shared vertices, in the child's order.
    A subclass provides _decide(k), which fills its tables for k colors
    and says whether the graph is k-colorable; _bag_colors(bag,
    inherited, pick), the colors of order[bag] its tables store for the
    colors the bag inherits and the pick its parent read, with the pick
    each child reads in turn; and _valid(witness), its check of the
    coloring read.
    """

    def __init__(
        self, G: WeightedDigraph, D: TreeDecomposition, tracked: Sequence[frozenset[int]]
    ):
        self.graph = G
        self.decomposition = D
        self.palette = max(1, D.width + 1)  # an empty bag has width -1
        self.k = 0  # k of the last decide(k)
        self.accepted = False  # whether the last decide(k) returned True
        shared: list[frozenset[int]] = []
        order: list[tuple[int, ...]] = []
        position: list[dict[int, int]] = []
        for bag, p in zip(tracked, D.parent):
            s = frozenset() if p is None else bag & tracked[p]
            vertices = (*sorted(s), *sorted(bag - s))
            shared.append(s)
            order.append(vertices)
            position.append(dict(zip(vertices, range(len(vertices)))))
        kids = [
            [(c, tuple([position[i][v] for v in order[c][: len(shared[c])]])) for c in children]
            for i, children in enumerate(D.children)
        ]
        self.shared_set, self.order, self.position, self.kids = shared, order, position, kids

    def shared_key(self, bag: int, colors: Coloring) -> tuple[int, ...]:
        """The colors of bag's shared vertices in order[bag], the prefix a
        table key starts with; `colors` must cover exactly the shared set,
        with int colors in 1..k for the k of the last decide(k)."""
        shared = self.shared_set[bag]
        if set(colors) != shared:
            raise PreconditionError(
                f"colors must cover exactly the shared set of bag {bag}", witness=bag
            )
        key = tuple(colors[v] for v in self.order[bag][: len(shared)])
        if not all(isinstance(c, int) and not isinstance(c, bool) and 1 <= c <= self.k for c in key):
            raise PreconditionError(f"coloring uses a color outside 1..{self.k}", witness=bag)
        return key

    def decide(self, k: int) -> bool:
        """Whether the graph is k-colorable; fills fresh tables for k."""
        _check_int(k, "color count", PreconditionError)
        if k < 1:
            raise PreconditionError(f"color count must be >= 1, got {k}")
        self.k, self.accepted = k, False
        self.accepted = self._decide(k)
        return self.accepted

    def witness(self) -> Coloring:
        """A k-coloring read from the tables of the last decide(k), which
        must have returned True.

        The tables are read root first.  Each bag looks up the colors
        stored for the colors it inherits, which they must start with,
        colors its free vertices and hands each child the colors of that
        child's shared vertices.  So each vertex is colored at the
        rootmost bag tracking it and inherited below; the checks pin that
        down.
        """
        if not self.accepted:
            raise PreconditionError("witness() needs a decide(k) that returned True")
        witness: Coloring = {}
        stack: list[tuple[int, tuple[int, ...], object]] = [(self.decomposition.root, (), ())]
        while stack:
            bag, inherited, pick = stack.pop()
            colors, picks = self._bag_colors(bag, inherited, pick)
            ns = len(inherited)
            if colors[:ns] != inherited:
                raise AssertionError(f"bag {bag} does not keep its inherited colors")
            for v, c in zip(self.order[bag][ns:], colors[ns:]):
                if v in witness:
                    raise AssertionError(f"vertex {v} colored twice")
                witness[v] = c
            for (child, pos), pick in zip(self.kids[bag], picks):
                stack.append((child, tuple([colors[p] for p in pos]), pick))
        if set(witness) != set(self.graph.vertices):
            raise AssertionError("witness not total")
        if not self._valid(witness):
            raise AssertionError("witness read from the tables is not a valid coloring")
        return witness

    def solve(self) -> SolveResult:
        """The least k that decide(k) accepts, with its witness.  k = 1 is
        skipped when some vertex's whole indegree reaches 1, since the
        one 1-coloring then fails there."""
        scale = self.graph.scale
        first = 1 + any(
            sum([units for _, units in pairs]) >= scale[v]
            for v, pairs in self.graph.in_units.items()
        )
        k = next((k for k in range(first, self.palette + 1) if self.decide(k)), None)
        if k is None:
            raise AssertionError("width+1 colors always suffice")
        return SolveResult(k, self.witness())
