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
from itertools import repeat
from typing import Generator, Iterable

from .decomposition import (
    TreeDecomposition,
    TreeDP,
    extended_bags,
    require_valid,
    validate_decomposition,
)
from .graph import Coloring, SolveResult, WeightedDigraph, is_valid_coloring

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


class IndegreeSolver(TreeDP):
    """One solve against a fixed graph and validated rooted decomposition;
    create a fresh instance per solve.  Bag i tracks V_i."""

    def __init__(self, G: WeightedDigraph, D: TreeDecomposition):
        require_valid(validate_decomposition(G, D))
        super().__init__(G, D, extended_bags(D, G))

        # per bag and position p in self.order[bag]: each positive arc
        # into a bag vertex whose endpoints sit at p and at an earlier
        # position q, as (q, head position, units); an arc is checked
        # once, when its later endpoint gets a color; and each position's
        # start for its same-color in-units, minus its vertex's scale, so
        # that a bag vertex violates once its count reaches 0
        self._back: list[list[list[tuple[int, int, int]]]] = []
        self._start: list[list[int]] = []
        for bag, order, position in zip(D.bags, self.order, self.position):
            back: list[list[tuple[int, int, int]]] = [[] for _ in position]
            for h in bag:
                b = position[h]
                for t, units in G.in_units[h]:
                    if units > 0:
                        a = position[t]
                        if a < b:
                            back[b].append((a, b, units))
                        else:
                            back[a].append((b, b, units))
            self._back.append(back)
            self._start.append([-G.scale[v] for v in order])

        self.memo: dict[MemoKey, Colors | None] = {}
        self.hits = 0

    # -- decision DP ---------------------------------------------------

    def _colorings(self, bag: int, key: Colors) -> Generator[list[int], None, None]:
        """Each k-coloring of V_bag, in self.order[bag], that starts with
        `key` and keeps every bag vertex's same-color in-units below its
        scale.  Free vertices take colors ascending; the yielded list is
        live, so copy it to keep it.  A free position adds its arcs'
        units when it takes a color and removes them when it gives the
        color up; the inherited prefix is summed once, up front."""
        back, k = self._back[bag], self.k
        m, ns = len(back), len(key)
        colors = list(key) + [0] * (m - ns)
        # same-color in-units of each bag vertex so far, minus its scale
        spent = self._start[bag].copy()
        for p in range(ns):
            c = colors[p]
            for q, head, units in back[p]:
                if colors[q] == c:
                    spent[head] += units
        if max(spent, default=-1) >= 0:
            return  # the inherited colors alone already violate
        p = ns
        while True:
            if p == m:
                yield colors
            elif colors[p] < k:
                c = colors[p] = colors[p] + 1
                arcs = back[p]
                over = False
                for q, head, units in arcs:
                    if colors[q] == c:
                        spent[head] += units
                        if spent[head] >= 0:
                            over = True
                if over:  # take the units back and try the next color
                    for q, head, units in arcs:
                        if colors[q] == c:
                            spent[head] -= units
                else:
                    p += 1
                continue
            else:
                colors[p] = 0
            p -= 1  # position p is exhausted: back up one position
            if p < ns:
                return
            c = colors[p]
            for q, head, units in back[p]:
                if colors[q] == c:
                    spent[head] -= units

    def _search(self, bag: int, key: Colors) -> Generator[MemoKey, bool, Colors | None]:
        """The first coloring of V_bag extending `key` that every child
        accepts, or None.  Yields each child state it needs and expects
        the child's answer sent back."""
        for colors in self._colorings(bag, key):
            for child, pos in self.kids[bag]:
                if not (yield child, tuple([colors[p] for p in pos])):
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
        key = self.shared_key(bag, partial)
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

    def _decide(self, k: int) -> bool:
        """Whether the graph is k-colorable; starts a fresh memo for k."""
        self.memo, self.hits = {}, 0
        return self.bag_coloring(self.decomposition.root, {}) is not None

    # -- public API --------------------------------------------------

    def _bag_colors(self, bag: int, inherited: Colors, pick: object) -> tuple[Colors, Iterable]:
        """The coloring of V_bag the memo stores for the state `inherited`;
        the memo holds one per state, so no child needs a pick."""
        colors = self.memo.get((bag, inherited))
        if colors is None:
            raise AssertionError(f"no stored coloring for an accepted state of bag {bag}")
        return colors, repeat(None)

    def _valid(self, witness: Coloring) -> bool:
        return is_valid_coloring(self.graph, witness)

    def memo_stats(self) -> MemoStats:
        width = max((len(key[1]) for key in self.memo), default=0)
        return MemoStats(entries=len(self.memo), hits=self.hits, max_key_width=width)


def solve_fpt_indegree(G: WeightedDigraph, D: TreeDecomposition) -> SolveResult:
    """Exact chromatic value and witness via the indegree-tracking DP."""
    return IndegreeSolver(G, D).solve()
