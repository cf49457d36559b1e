"""Tree-decomposition dynamic program over integer budgets.

Weights may be any rationals.  Each vertex v counts its incoming weight
in its own unit, 1/scale[v] (`WeightedDigraph.scale`: the lcm of the
denominators of v's in-arc weights), and has a budget of scale[v] - 1
units, the largest amount strictly below 1: its capacity for incoming
same-color weight.  Each arc's units are charged to its head exactly
once, at the rootmost bag containing both endpoints, and only when both
endpoints share a color.

The program decides k-colorability for k = 1, 2, ... and stops at the
first k that works; width+1 colors always suffice.  For one k it fills
the bags bottom-up.  The table of a bag maps each k-coloring of the
vertices it shares with its parent to the antichain of minimal demand
vectors: the units its subtree charges to each shared vertex, over the
colorings of the subtree that keep every other vertex within budget.
A parent combines one coloring of its own bag, its own charges and one
stored vector per child, keeping a sum only while no vertex goes over
its budget.  Storing only the minimal vectors suffices because a parent
can use any demand that a smaller one would also fit (Cygan et al.,
Parameterized Algorithms, 2015, ch. 7).  Each stored vector keeps the
bag coloring and child vectors that first gave it, so the witness is
read from the tables root first, without a second search.

Colors are interchangeable: renaming them maps the valid colorings of
a subtree onto each other and leaves every demand unchanged.  So a
table holds one key per class of shared colorings, the first-use
canonical one, in which each color is at most 1 + the largest color
before it (a restricted growth string, Knuth, TAOCP 4A, 7.2.1.5); a
lookup first renames the colors in order of first use.  A bag fills
only the colorings that are first-use canonical in its shared-first
order, whose shared prefix is then canonical too: one per class
instead of up to k! of them.

Colorings and demand vectors range over bag vertices only, and a demand
coordinate of v is a sum of some of v's in-arc units below scale[v], so
it takes at most min(scale[v], 2^indeg(v)) values.  State is therefore
polynomial in n for a fixed width and either a fixed precision (b-bit
fixed point weights give scale[v] <= 2^b) or a fixed maximum in-degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Collection, TypeVar

from .decomposition import TreeDecomposition, TreeDP, require_valid, validate_decomposition
from .errors import PreconditionError
from .graph import Coloring, SolveResult, WeightedDigraph, is_valid_coloring

Vector = tuple[int, ...]
Origin = TypeVar("Origin")
# where a stored demand came from: the bag's canonical coloring and the
# vector it read from each child
Entry = tuple[tuple[int, ...], tuple[Vector, ...]]


@dataclass(frozen=True)
class BudgetMemoStats:
    """Table shape of the last decide(k) run (for a solve: the run that
    decided the answer).

    Every count is per class of colorings equal up to renaming colors:
    color_entries counts the stored (bag, first-use canonical shared
    coloring, minimal demand vector) entries; distribute_entries counts
    the partial sums kept after adding each child's vector, over the
    canonical bag colorings that completed; hits counts the child
    entries those colorings read, one per child; max_key_width is the
    most vertices any vector of the run spans.
    """

    entries: int  # color_entries + distribute_entries
    color_entries: int
    distribute_entries: int
    hits: int
    max_key_width: int


def check_fixed_point(G: WeightedDigraph, bits: int) -> tuple[int, int, object] | None:
    """None when every weight is a multiple of 2^-bits, else the first
    offending arc in canonical order.  A vertex's in-arc denominators all
    divide 2^bits exactly when their lcm, `G.scale`, does, so the arcs
    are scanned only when some vertex fails."""
    if bits < 1:
        raise PreconditionError(f"bits must be >= 1, got {bits}")
    unit = 1 << bits
    if not any(unit % scale for scale in G.scale.values()):
        return None
    return next(((t, h, w) for t, h, w in G.arcs if unit % w.denominator), None)


def min_precision_bits(G: WeightedDigraph) -> int | None:
    """Smallest b >= 1 representing all weights, or None if some weight
    is not dyadic."""
    scales = G.scale.values()  # powers of two exactly when every denominator is
    if any(scale & (scale - 1) for scale in scales):
        return None
    return max(1, max(scales, default=1).bit_length() - 1)


def _minimal(pairs: list[tuple[Vector, Origin]]) -> dict[Vector, Origin]:
    """The antichain of componentwise-minimal vectors among the
    (vector, origin) pairs, each mapped to the first origin it came
    with; ordered by sum, a dominating vector first."""
    origin = dict(reversed(pairs))  # the first origin of a vector wins
    if len(origin) < 2:
        return origin
    kept: dict[Vector, Origin] = {}
    for vec in sorted({vec for vec, _ in pairs}, key=sum):
        if not any(all(a <= b for a, b in zip(low, vec)) for low in kept):
            kept[vec] = origin[vec]
    return kept


@lru_cache(maxsize=None)
def _first_use_extensions(length: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `length` colors in 1..k in which each color is at
    most 1 + the largest color before it; in lexicographic order."""
    partial: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(length):
        partial = [
            (colors + (c,), max(high, c))
            for colors, high in partial
            for c in range(1, min(k, high + 1) + 1)
        ]
    return tuple(colors for colors, _ in partial)


def _first_use(colors: tuple[int, ...]) -> tuple[int, ...]:
    """`colors` with the colors renamed 1, 2, ... in order of first use."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(c, len(relabel) + 1) for c in colors])


class BudgetSolver(TreeDP):
    """One solve against a fixed graph and validated rooted decomposition;
    create a fresh instance per solve.  Bag i tracks X_i.

    `bits`, when given, states the caller's precision: a weight that is
    not a multiple of 2^-bits is refused.  The units never depend on it.
    """

    def __init__(self, G: WeightedDigraph, D: TreeDecomposition, bits: int | None = None):
        """Validate D, then lay out the bags and charge each arc at one bag.

        An arc is charged at the rootmost bag holding both endpoints.
        The bags holding v form a subtree whose top bag, top[v], has v
        in its free part; the bags holding both endpoints form a subtree
        too, topped by the deeper of the two top bags: the one holding
        the other endpoint.  Holding both endpoints there is the whole
        check: a top bag's parent lacks its free vertex, so no bag above
        holds both.  Set-up takes time linear in sum |X_i| + m past
        validation, with no arc sorted: the arcs come in order, and
        each charge_list comes out sorted.
        """
        require_valid(validate_decomposition(G, D))
        offending = None if bits is None else check_fixed_point(G, bits)
        if offending is not None:
            t, h, w = offending
            raise PreconditionError(
                f"arc ({t}, {h}) weight {w} is not {bits}-bit fixed point",
                witness=offending,
            )
        super().__init__(G, D, D.bags)

        # in_units[h] lists h's in-arcs in arc order, so one iterator per
        # head yields each arc's units as the arcs come
        bags, shared_set = D.bags, self.shared_set
        top = {v: i for i, vs in enumerate(self.order) for v in vs[len(shared_set[i]) :]}
        units_of = {h: iter(pairs) for h, pairs in G.in_units.items()}
        charge_list: list[list[tuple[int, int, int]]] = [[] for _ in bags]
        for t, h, _ in G.arcs:
            i = top[t] if h in bags[top[t]] else top[h]
            if t not in bags[i]:
                raise AssertionError("every arc must be charged at exactly one bag")
            charge_list[i].append((t, h, next(units_of[h])[1]))
        self.charge_list = charge_list
        # each position has its vertex's budget, scale - 1
        self._charges = [
            [(position[t], position[h], u) for t, h, u in charges if u]
            for charges, position in zip(self.charge_list, self.position)
        ]
        self._budget = [[G.scale[v] - 1 for v in order] for order in self.order]

        self.tables: list[dict[tuple[int, ...], dict[Vector, Entry]]] = [{} for _ in D.bags]
        self._canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._stats = BudgetMemoStats(0, 0, 0, 0, 0)

    # -- decision DP ---------------------------------------------------

    def _layers(
        self, bag: int, colors: tuple[int, ...]
    ) -> tuple[Collection[tuple[Vector, tuple[Vector, ...]]], int] | None:
        """Demand vectors over the bag's vertices (in self.order[bag])
        under `colors`, each with the stored vector it read from each
        child, and the number of partial sums kept.  Layer 0 holds the
        bag's own charges; layer j adds one stored vector of child j to
        each sum of layer j-1, keeping the minimal sums with no vertex
        over its budget.  Each child is read under its shared colors
        renamed in order of first use.  None when the bag's own charges
        put a vertex over its budget, a child has no entry for these
        colors or some layer is empty."""
        budget = self._budget[bag]
        canonical = self._canonical
        own = [0] * len(colors)
        for t, h, units in self._charges[bag]:
            if colors[t] == colors[h]:
                own[h] += units
                if own[h] > budget[h]:
                    return None
        layer: Collection[tuple[Vector, tuple[Vector, ...]]] = [(tuple(own), ())]
        kept = 0
        for j, (child, pos) in enumerate(self.kids[bag]):
            key = tuple([colors[p] for p in pos])
            canon = canonical.get(key)
            if canon is None:
                canon = canonical[key] = _first_use(key)
            front = self.tables[child].get(canon)
            if front is None:
                return None
            sums = []
            for base, picks in layer:
                for demand in front:
                    total = list(base)
                    for p, units in zip(pos, demand):
                        units += total[p]
                        if units > budget[p]:
                            break
                        total[p] = units
                    else:
                        sums.append((tuple(total), picks + (demand,)))
            if not sums:
                return None
            # one base plus an antichain is an antichain already
            layer = sums if j == 0 else _minimal(sums).items()
            kept += len(layer)
        return layer, kept

    def _decide(self, k: int) -> bool:
        """Fill the demand tables for k colors, leaves first; True when
        the whole graph is k-colorable.  Each bag tries its first-use
        canonical colorings only, and stores with each minimal demand
        the coloring and child vectors that first gave it.  Stops at the
        first bag whose table is empty."""
        D = self.decomposition
        self.tables = [{} for _ in D.bags]
        color_entries = distribute_entries = hits = width = 0
        feasible = True
        for bag in reversed(D.preorder):
            ns = len(self.shared_set[bag])
            width = max(width, len(self.order[bag]))
            found: dict[tuple[int, ...], list[tuple[Vector, Entry]]] = {}
            for colors in _first_use_extensions(len(self.order[bag]), k):
                filled = self._layers(bag, colors)
                if filled is not None:
                    hits += len(self.kids[bag])
                    distribute_entries += filled[1]
                    pairs = found.setdefault(colors[:ns], [])
                    for vec, picks in filled[0]:
                        pairs.append((vec[:ns], (colors, picks)))
            table = self.tables[bag] = {key: _minimal(pairs) for key, pairs in found.items()}
            color_entries += sum(map(len, table.values()))
            if not table:
                feasible = False
                break
        self._stats = BudgetMemoStats(
            color_entries + distribute_entries, color_entries, distribute_entries, hits, width
        )
        return feasible

    def demands(self, bag: int, colors: Coloring) -> list[dict[int, Fraction]]:
        """Minimal demand vectors stored for `bag` by the last decide(k),
        given the colors of its shared vertices, as the weight each
        shared vertex receives; empty when no coloring of the subtree
        extends them.  Renaming the colors changes nothing."""
        front = self.tables[bag].get(_first_use(self.shared_key(bag, colors)), {})
        scale = self.graph.scale
        return [
            {v: Fraction(units, scale[v]) for v, units in zip(self.order[bag], demand)}
            for demand in front
        ]

    # -- public API --------------------------------------------------

    def _bag_colors(
        self, bag: int, inherited: tuple[int, ...], demand: Vector
    ) -> tuple[tuple[int, ...], tuple[Vector, ...]]:
        """The coloring of X_bag stored with `demand` for the colors the
        bag inherits, and the vector each child was summed with.

        The inherited colors are renamed in order of first use to find
        the entry; its canonical coloring is mapped back, canonical color
        i to the i-th inherited color first used and each new color to
        the next real color not inherited, ascending.
        """
        entry = self.tables[bag].get(_first_use(inherited), {}).get(demand)
        if entry is None:
            raise AssertionError(f"no stored entry for an accepted state of bag {bag}")
        colors, picks = entry
        first = dict.fromkeys(inherited)
        real = [0, *first, *[c for c in range(1, self.k + 1) if c not in first]]
        return tuple([real[c] for c in colors]), picks

    def _valid(self, witness: Coloring) -> bool:
        return is_valid_coloring(self.graph, witness)

    def memo_stats(self) -> BudgetMemoStats:
        return self._stats


def solve_fpt_budget(
    G: WeightedDigraph, D: TreeDecomposition, bits: int | None = None
) -> SolveResult:
    """Exact chromatic value and witness via the budget DP."""
    return BudgetSolver(G, D, bits).solve()
