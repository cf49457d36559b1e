"""Rooted tree decompositions: construction, validation, structural queries.

A tree decomposition of a graph assigns a bag (vertex set) to each node
of a tree such that (1) every vertex lies in some bag, (2) both
endpoints of every arc share some bag, and (3) the bags containing any
fixed vertex induce a connected subtree.  Width is the largest bag size
minus one.

Decompositions here are rooted: the dynamic programs in this package key
each bag's table by the colors it shares with its parent, and read their
witnesses from the root down.  Bag indices are 0-based internally (the
text format is 1-based, see `formats`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import InstanceTooLargeError, PreconditionError
from .graph import UndirectedWeightedGraph, WeightedDigraph

EXACT_SMALL_LIMIT = 20


@dataclass(frozen=True, init=False)
class TreeDecomposition:
    """Immutable rooted tree decomposition.

    `bags[i]` is the vertex set of bag i; `tree_edges` are unordered
    index pairs forming a tree over all bags; `root` selects the bag
    the dynamic programs start from.  Structural validity against a
    concrete graph is a separate check (`validate_decomposition`); the
    constructor only enforces the tree shape.
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
        bag_tuple = tuple(frozenset(b) for b in bags)
        if not bag_tuple:
            raise ValueError("a decomposition needs at least one bag")
        count = len(bag_tuple)
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in tree_edges:
            if not (0 <= a < count and 0 <= b < count):
                raise ValueError(f"tree edge ({a}, {b}) references a missing bag")
            if a == b:
                raise ValueError(f"self-loop at bag {a}")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate tree edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        if len(canon) != count - 1:
            raise ValueError(f"{len(canon)} tree edges cannot form a tree on {count} bags")
        if not isinstance(root, int) or not 0 <= root < count:
            raise ValueError(f"root index {root!r} out of range")
        object.__setattr__(self, "bags", bag_tuple)
        object.__setattr__(self, "tree_edges", tuple(canon))
        object.__setattr__(self, "root", root)
        # with count-1 edges, a parent for every bag but the root proves a tree
        if self.parent.count(None) != 1:
            raise ValueError("tree edges do not connect all bags")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def parent(self) -> tuple[int | None, ...]:
        """Parent bag index of each bag under the current root (None at the root)."""
        par: list[int | None] = [None] * len(self.bags)
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            cur = queue.popleft()
            for nxt in self.adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    par[nxt] = cur
                    queue.append(nxt)
        return tuple(par)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child bag indices of each bag, ascending; the order fixes child ordinals."""
        kids: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(i)
        return tuple(tuple(sorted(k)) for k in kids)

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        out: list[int] = []
        stack = [self.root]
        while stack:
            cur = stack.pop()
            out.append(cur)
            for kid in reversed(self.children[cur]):
                stack.append(kid)
        return tuple(out)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def root_at(self, i: int) -> TreeDecomposition:
        """Same bags and tree, re-rooted at bag i."""
        if not 0 <= i < len(self.bags):
            raise ValueError(f"root index {i} out of range")
        return replace(self, root=i)


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


def require_valid(violations: list[DecompositionViolation]) -> None:
    """Raise PreconditionError naming the first of `violations`, if any."""
    if violations:
        raise PreconditionError(
            f"decomposition invalid: {violations[0].message}", witness=violations[0]
        )


def _witness_key(witness: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(witness, tuple):
        return witness
    return (witness, 0)


def _underlying_sets(graph: WeightedDigraph | UndirectedWeightedGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    if isinstance(graph, WeightedDigraph):
        pairs = ((t, h) for t, h, _ in graph.arcs)
    else:
        pairs = ((u, v) for u, v, _ in graph.edges)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _eliminate(adj: dict[int, set[int]], v: int) -> None:
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
    for u in nbrs:
        for w in nbrs:
            if u < w:
                adj[u].add(w)
                adj[w].add(u)


def _degree(adj: dict[int, set[int]], v: int) -> int:
    return len(adj[v])


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    nbrs = list(adj[v])
    return sum(
        1
        for i, u in enumerate(nbrs)
        for w in nbrs[i + 1 :]
        if w not in adj[u]
    )


def _order_greedy(
    adj: dict[int, set[int]], score: Callable[[dict[int, set[int]], int], int]
) -> list[int]:
    """Repeatedly eliminate the vertex of least score, ties to the smallest.

    Scores are kept in a table and rescored incrementally: eliminating v
    changes the neighborhoods only of N(v) (they lose v and gain fill
    edges among themselves), and a new edge between two of them can
    change the fill count only of a vertex adjacent to both, so only
    N(v) and N(N(v)) are rescored.  The next vertex is the least
    (score, vertex) entry of a heap; an entry whose score no longer
    matches the table is stale and skipped.
    """
    adj = {v: set(s) for v, s in adj.items()}
    scores = {v: score(adj, v) for v in adj}
    heap = [(s, v) for v, s in scores.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        s, v = heapq.heappop(heap)
        if scores.get(v) != s:
            continue
        order.append(v)
        del scores[v]
        nbrs = adj[v]
        touched = set(nbrs).union(*(adj[u] for u in nbrs))
        touched.discard(v)
        _eliminate(adj, v)
        for u in touched:
            s = score(adj, u)
            if s != scores[u]:
                scores[u] = s
                heapq.heappush(heap, (s, u))
    return order


def _order_exact(adj: dict[int, set[int]]) -> list[int]:
    """Elimination order of minimum width, via a decision search per width.

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
        v = next((u for u in sorted(adj) if _fill_count(adj, u) == 0), None)
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


def _decomposition_from_order(n: int, adj: dict[int, set[int]], order: list[int]) -> TreeDecomposition:
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


def build_decomposition(
    graph: WeightedDigraph | UndirectedWeightedGraph, strategy: str = "min-fill"
) -> TreeDecomposition:
    """Tree decomposition from an elimination ordering; root is bag 0.

    Strategies: "min-degree" and "min-fill" are fast heuristics whose
    width may exceed the treewidth; "exact-small" returns minimum width
    but is exponential and refuses graphs with more than
    EXACT_SMALL_LIMIT vertices.  Ties always break toward the smallest
    vertex index, so results are reproducible.
    """
    adj = _underlying_sets(graph)
    if strategy == "min-degree":
        order = _order_greedy(adj, _degree)
    elif strategy == "min-fill":
        order = _order_greedy(adj, _fill_count)
    elif strategy == "exact-small":
        if graph.n > EXACT_SMALL_LIMIT:
            raise InstanceTooLargeError(
                f"exact-small is limited to {EXACT_SMALL_LIMIT} vertices, got {graph.n}",
                size=graph.n,
                limit=EXACT_SMALL_LIMIT,
            )
        order = _order_exact(adj)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _decomposition_from_order(graph.n, adj, order)


def extended_bags(D: TreeDecomposition, G: WeightedDigraph) -> tuple[frozenset[int], ...]:
    """For each bag X_i, the set V_i = X_i together with all in-neighbors of X_i."""
    out = []
    for bag in D.bags:
        acc = set(bag)
        for v in bag:
            acc |= G.in_neighbors[v]
        out.append(frozenset(acc))
    return tuple(out)


def shared_first_layout(D: TreeDecomposition, tracked: Sequence[frozenset[int]]):
    """Per-bag layout for a DP whose bag i tracks the vertices tracked[i]
    and keys its table by the colors of those it shares with its parent.

    Returns (shared, order, position, kids): shared[i] is tracked[i] ∩
    tracked[parent]; order[i] lists tracked[i] with the shared vertices
    first, each part ascending, so a coloring's prefix is its key;
    position[i] maps each vertex to its index in order[i]; kids[i] pairs
    each child with the positions in order[i] of that child's shared
    vertices, in the child's order.
    """
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

