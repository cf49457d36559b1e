"""Tree-decomposition dynamic program tracking bag vertices plus their
in-neighbors.

For each bag X_i let V_i be X_i together with every in-neighbor of a
bag vertex.  The recursion enumerates colorings of V_i extending the
inherited coloring of V_i ∩ V_p (p the parent bag), accepts those where
every bag vertex keeps same-color weighted indegree below 1 (checkable
locally because all in-neighbors of X_i lie inside V_i), and combines
children by taking the maximum of their minimum color counts.
Memoization is keyed on (bag, coloring restricted to V_i ∩ V_p): the
recursion reads nothing else.

The palette is capped at width+1 colors, which always suffices.  Cost
grows exponentially in |V_i|, i.e. in width times maximum indegree; the
solver stays exact but is only practical when both are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .decomposition import TreeDecomposition, extended_bags, validate_decomposition
from .errors import PreconditionError
from .graph import Coloring, WeightedDigraph, is_valid_coloring
from .oracle import SolveResult

MemoKey = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class MemoStats:
    """Memo table shape after a solve: entry count, hit count, and the
    largest number of (vertex, color) pairs in any key."""

    entries: int
    hits: int
    max_key_width: int


def _encode(partial: Coloring) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(partial.items()))


class IndegreeSolver:
    """One solve against a fixed graph and validated rooted decomposition.

    Owns its memo table; create a fresh instance per solve.  Set
    memoize=False to force pure recursion (same values, no table), which
    exists so tests can confirm memoization never changes results.
    """

    def __init__(self, G: WeightedDigraph, D: TreeDecomposition, *, memoize: bool = True):
        violations = validate_decomposition(G, D)
        if violations:
            raise PreconditionError(
                f"decomposition invalid: {violations[0].message}",
                witness=violations[0],
            )
        self.graph = G
        self.decomposition = D
        self.memoize = memoize
        self.palette = D.width + 1
        self.extended = extended_bags(D, G)
        self.scale = G.weight_scale

        self.inherited_set: list[frozenset[int]] = []
        self.free_order: list[tuple[int, ...]] = []
        for i in range(len(D.bags)):
            parent = D.parent[i]
            shared = (
                frozenset() if parent is None else self.extended[i] & self.extended[parent]
            )
            self.inherited_set.append(shared)
            self.free_order.append(tuple(sorted(self.extended[i] - shared)))

        # per bag: exact in-arc units of each bag vertex, and for each
        # vertex of V_i the bag vertices it feeds (positive arcs only;
        # zero-weight arcs cannot affect any sum)
        self.bag_in_units: list[dict[int, list[tuple[int, int]]]] = []
        self.watchers: list[dict[int, list[tuple[int, int]]]] = []
        for i, bag in enumerate(D.bags):
            in_units = {
                v: [(t, int(w * self.scale)) for t, w in G.in_arcs[v] if w > 0]
                for v in bag
            }
            watch: dict[int, list[tuple[int, int]]] = {u: [] for u in self.extended[i]}
            for v, pairs in in_units.items():
                for t, units in pairs:
                    watch[t].append((v, units))
            self.bag_in_units.append(in_units)
            self.watchers.append(watch)

        self.memo: dict[MemoKey, float] = {}
        self.hits = 0

    # -- recursion ---------------------------------------------------

    def color_subtree(self, bag: int, partial: Coloring) -> float:
        """Minimum color count for the subtree rooted at `bag`, given the
        inherited coloring of V_bag ∩ V_parent; inf when infeasible."""
        if set(partial) != self.inherited_set[bag]:
            raise PreconditionError(
                f"partial coloring must cover exactly the shared set of bag {bag}",
                witness=bag,
            )
        key = (bag, _encode(partial))
        if self.memoize and key in self.memo:
            self.hits += 1
            return self.memo[key]

        best: float = inf

        def visit(coloring: Coloring, local: int) -> bool:
            nonlocal best
            value = self._combine(bag, coloring, local, best)
            if value < best:
                best = value
            return False

        self._scan(bag, partial, lambda: best, visit)
        if self.memoize:
            self.memo[key] = best
        return best

    def _combine(self, bag: int, coloring: Coloring, local: int, stop_at: float) -> float:
        """max of the local color count and all child subtree values,
        abandoned (inf) once the running value reaches stop_at."""
        value: float = local
        for child in self.decomposition.children[bag]:
            if value >= stop_at:
                return inf
            restriction = {v: coloring[v] for v in self.inherited_set[child]}
            child_value = self.color_subtree(child, restriction)
            if child_value > value:
                value = child_value
        if value >= stop_at:
            return inf
        return value

    def _scan(self, bag: int, partial: Coloring, bound_getter, visit) -> bool:
        """Enumerate colorings of the free vertices of `bag` in vertex
        order, colors ascending 1..palette, extending `partial`.

        Branches are pruned when a bag vertex's same-color in-units
        reach the scale (indegree would hit 1) or when the running max
        color reaches bound_getter().  `visit(coloring, local)` runs on
        every surviving full coloring (live dict; copy to keep); a True
        return stops the enumeration early.  Returns whether stopped.
        """
        coloring: Coloring = dict(partial)
        in_units = self.bag_in_units[bag]
        watchers = self.watchers[bag]
        order = self.free_order[bag]
        scale = self.scale

        # spent[v] = same-color in-units of bag vertex v over assigned tails
        spent: dict[int, int] = {}
        for v in in_units:
            if v in coloring:
                own = sum(
                    units
                    for t, units in in_units[v]
                    if coloring.get(t) == coloring[v]
                )
                if own >= scale:
                    return False  # inherited colors alone already violate
                spent[v] = own

        def assign(u: int, color: int, undo: list[tuple[int, int]]) -> bool:
            if u in in_units:
                own = sum(
                    units for t, units in in_units[u] if coloring.get(t) == color
                )
                if own >= scale:
                    return False
                spent[u] = own
                undo.append((u, -1))
            for v, units in watchers[u]:
                if v != u and coloring.get(v) == color:
                    spent[v] += units
                    undo.append((v, units))
                    if spent[v] >= scale:
                        return False
            return True

        baseline = max(partial.values(), default=0)

        def descend(idx: int, local: int) -> bool:
            if idx == len(order):
                return visit(coloring, local)
            u = order[idx]
            for c in range(1, self.palette + 1):
                if max(local, c) >= bound_getter():
                    break
                coloring[u] = c
                undo: list[tuple[int, int]] = []
                if assign(u, c, undo):
                    if descend(idx + 1, max(local, c)):
                        return True
                del coloring[u]
                for v, units in reversed(undo):
                    if units < 0:
                        del spent[v]
                    else:
                        spent[v] -= units
            return False

        if baseline >= bound_getter():
            return False
        return descend(0, baseline)

    # -- public API --------------------------------------------------

    def solve(self) -> SolveResult:
        root = self.decomposition.root
        value = self.color_subtree(root, {})
        if value == inf:
            raise AssertionError("width+1 colors always suffice")
        witness = self._replay()
        if not is_valid_coloring(self.graph, witness):
            raise AssertionError("replayed witness is not a valid coloring")
        return SolveResult(max(1, int(value)), witness)

    def _replay(self) -> Coloring:
        """Rebuild one optimal coloring by re-walking accepted choices.

        Each vertex is committed exactly once, at the rootmost bag whose
        extended set V_i contains it; the checks pin that down.
        """
        witness: Coloring = {}
        deciding = self._deciding_bags()

        def replay(bag: int, partial: Coloring, target: float) -> None:
            found = False

            def visit(coloring: Coloring, local: int) -> bool:
                nonlocal found
                value: float = local
                plan: list[tuple[int, Coloring, float]] = []
                for child in self.decomposition.children[bag]:
                    restriction = {v: coloring[v] for v in self.inherited_set[child]}
                    child_value = self.color_subtree(child, restriction)
                    plan.append((child, restriction, child_value))
                    if child_value > value:
                        value = child_value
                    if value > target:
                        return False
                if value != target:
                    return False
                for v in self.free_order[bag]:
                    if v in witness:
                        raise AssertionError(f"vertex {v} colored twice")
                    if deciding[v] != bag:
                        raise AssertionError(f"vertex {v} fixed away from its deciding bag")
                    witness[v] = coloring[v]
                for v, c in partial.items():
                    if witness[v] != c:
                        raise AssertionError(f"inherited color of {v} drifted")
                for child, restriction, child_value in plan:
                    replay(child, restriction, child_value)
                found = True
                return True

            self._scan(bag, partial, lambda: target + 1, visit)
            if not found:
                raise AssertionError("replay failed to rediscover the memoized optimum")

        root = self.decomposition.root
        replay(root, {}, self.color_subtree(root, {}))
        if set(witness) != set(self.graph.vertices):
            raise AssertionError("witness not total")
        return witness

    def _deciding_bags(self) -> dict[int, int]:
        D = self.decomposition
        out: dict[int, int] = {}
        for v in self.graph.vertices:
            holders = {i for i, ext in enumerate(self.extended) if v in ext}
            rootmost = [
                i for i in holders if D.parent[i] is None or D.parent[i] not in holders
            ]
            if len(rootmost) != 1:
                raise AssertionError(f"bags holding {v} are disconnected")
            out[v] = rootmost[0]
        return out

    def memo_stats(self) -> MemoStats:
        width = max((len(key[1]) for key in self.memo), default=0)
        return MemoStats(entries=len(self.memo), hits=self.hits, max_key_width=width)


def solve_fpt_indegree(G: WeightedDigraph, D: TreeDecomposition) -> SolveResult:
    """Exact chromatic value and witness via the indegree-tracking DP."""
    return IndegreeSolver(G, D).solve()
