"""Tree-decomposition dynamic program tracking bag vertices plus their
in-neighbors.

For each bag X_i let V_i be X_i together with every in-neighbor of a
bag vertex.  Whether a bag vertex keeps same-color weighted indegree
below 1 can be checked inside V_i, since all its in-neighbors lie there.

The program decides k-colorability for k = 1, 2, ... and stops at the
first k that works; width+1 colors always suffice.  For one k it
searches top-down from the root.  A state is a bag and a k-coloring of
V_i ∩ V_p (p the parent bag): the subtree reads nothing else.  The
search tries the colorings of V_i that extend the state and pass the
local indegree check, asks each child about the coloring it inherits,
and stops at the first coloring every child accepts.  The memo stores
that coloring, or None when there is none, so the witness is read from
the memo root first without a second search.  An explicit stack of
per-state generators drives the search, so no call recurses per tree
level.

Cost grows exponentially in |V_i|, i.e. in width times maximum
indegree; the solver stays exact but is only practical when both are
small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from .decomposition import (
    TreeDecomposition,
    extended_bags,
    require_valid,
    shared_first_layout,
    validate_decomposition,
)
from .errors import PreconditionError
from .graph import Coloring, WeightedDigraph, is_valid_coloring
from .oracle import SolveResult

Colors = tuple[int, ...]
MemoKey = tuple[int, Colors]


@dataclass(frozen=True)
class MemoStats:
    """Memo table shape of the last decide(k) run (for a solve: the run
    that decided the answer): entry count, hit count, and the largest
    number of (vertex, color) pairs in any key."""

    entries: int
    hits: int
    max_key_width: int


class IndegreeSolver:
    """One solve against a fixed graph and validated rooted decomposition;
    create a fresh instance per solve."""

    def __init__(self, G: WeightedDigraph, D: TreeDecomposition):
        require_valid(validate_decomposition(G, D))
        self.graph = G
        self.decomposition = D
        self.palette = max(1, D.width + 1)  # an empty bag has width -1
        self.scale = G.weight_scale
        self.inherited_set, self.order, position, self._kids = shared_first_layout(
            D, extended_bags(D, G)
        )

        # per bag and position p in self.order[bag]: each positive arc
        # into a bag vertex whose endpoints sit at p and at an earlier
        # position q, as (q, head position, units); an arc is checked
        # once, when its later endpoint gets a color
        self._back: list[list[list[tuple[int, int, int]]]] = []
        for i, bag in enumerate(D.bags):
            back: list[list[tuple[int, int, int]]] = [[] for _ in self.order[i]]
            for h in bag:
                for t, units in G.in_units[h]:
                    if units > 0:
                        a, b = position[i][t], position[i][h]
                        back[max(a, b)].append((min(a, b), b, units))
            self._back.append(back)

        self.k = 0
        self.memo: dict[MemoKey, Colors | None] = {}
        self.hits = 0

    # -- decision DP ---------------------------------------------------

    def _colorings(self, bag: int, key: Colors) -> Generator[list[int], None, None]:
        """Each k-coloring of V_bag, in self.order[bag], that starts with
        `key` and keeps every bag vertex's same-color in-units below the
        scale.  Free vertices take colors ascending; the yielded list is
        live, so copy it to keep it."""
        back, scale, k = self._back[bag], self.scale, self.k
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

    def _search(self, bag: int, key: Colors) -> Generator[MemoKey, bool, Colors | None]:
        """The first coloring of V_bag extending `key` that every child
        accepts, or None.  Yields each child state it needs and expects
        the child's answer sent back."""
        for colors in self._colorings(bag, key):
            for child, pos in self._kids[bag]:
                if not (yield child, tuple(colors[p] for p in pos)):
                    break
            else:
                return tuple(colors)
        return None

    def bag_coloring(self, bag: int, partial: Coloring) -> Coloring | None:
        """The coloring of V_bag stored for the state `partial` (colors
        1..k of V_bag ∩ V_parent, k from the last decide(k)): the first
        that passes the local check and that every child accepts, or
        None when no coloring of the subtree extends `partial`.  Read
        from the memo, or searched and stored there."""
        shared = self.inherited_set[bag]
        if set(partial) != shared:
            raise PreconditionError(
                f"partial coloring must cover exactly the shared set of bag {bag}",
                witness=bag,
            )
        if not all(1 <= c <= self.k for c in partial.values()):
            raise PreconditionError(f"partial coloring uses a color outside 1..{self.k}")
        key = tuple(partial[v] for v in self.order[bag][: len(shared)])
        stack = []
        if (bag, key) in self.memo:
            self.hits += 1
        else:
            stack.append(((bag, key), self._search(bag, key)))
        answer: bool | None = None  # sent to the top search: None starts it
        while stack:
            state, search = stack[-1]
            try:
                asked = search.send(answer)
            except StopIteration as done:
                stack.pop()
                self.memo[state] = done.value
                answer = done.value is not None
                continue
            if asked in self.memo:
                self.hits += 1
                answer = self.memo[asked] is not None
            else:
                stack.append((asked, self._search(*asked)))
                answer = None
        colors = self.memo[bag, key]
        return None if colors is None else dict(zip(self.order[bag], colors))

    def decide(self, k: int) -> bool:
        """Whether the graph is k-colorable; starts a fresh memo for k."""
        if k < 1:
            raise PreconditionError(f"color count must be >= 1, got {k}")
        self.k, self.memo, self.hits = k, {}, 0
        return self.bag_coloring(self.decomposition.root, {}) is not None

    # -- public API --------------------------------------------------

    def solve(self) -> SolveResult:
        k = next((k for k in range(1, self.palette + 1) if self.decide(k)), None)
        if k is None:
            raise AssertionError("width+1 colors always suffice")
        witness = self._witness()
        if not is_valid_coloring(self.graph, witness):
            raise AssertionError("witness read from the memo is not a valid coloring")
        return SolveResult(k, witness)

    def _witness(self) -> Coloring:
        """Join the stored bag colorings of the last decide(k), root first.

        Each vertex is colored at the rootmost bag whose V_i holds it and
        inherited below; the checks pin that down.
        """
        witness: Coloring = {}
        stack: list[MemoKey] = [(self.decomposition.root, ())]
        while stack:
            bag, key = stack.pop()
            colors = self.memo.get((bag, key))
            if colors is None:
                raise AssertionError(f"no stored coloring for an accepted state of bag {bag}")
            for v, c in zip(self.order[bag], colors):
                if v in self.inherited_set[bag]:
                    if witness.get(v) != c:
                        raise AssertionError(f"inherited color of {v} drifted")
                elif v in witness:
                    raise AssertionError(f"vertex {v} colored twice")
                else:
                    witness[v] = c
            for child, pos in self._kids[bag]:
                stack.append((child, tuple(colors[p] for p in pos)))
        if set(witness) != set(self.graph.vertices):
            raise AssertionError("witness not total")
        return witness

    def memo_stats(self) -> MemoStats:
        width = max((len(key[1]) for key in self.memo), default=0)
        return MemoStats(entries=len(self.memo), hits=self.hits, max_key_width=width)


def solve_fpt_indegree(G: WeightedDigraph, D: TreeDecomposition) -> SolveResult:
    """Exact chromatic value and witness via the indegree-tracking DP."""
    return IndegreeSolver(G, D).solve()
