"""Tree-decomposition dynamic program over fixed-point budgets.

Weights must be b-bit fixed point, i.e. multiples of 2^-b.  Every
vertex has a budget of 2^b - 1 units (the largest value strictly below
1): its capacity for incoming same-color weight.  Each arc's units are
charged to its head exactly once, at the rootmost bag containing both
endpoints, and only when both endpoints share a color.

The program decides k-colorability for k = 1, 2, ... and stops at the
first k that works; width+1 colors always suffice.  For one k it fills
the bags bottom-up.  The table of a bag maps each k-coloring of the
vertices it shares with its parent to the antichain of minimal demand
vectors: the units its subtree charges to each shared vertex, over the
colorings of the subtree that keep every other vertex within budget.
A parent combines one coloring of its own bag, its own charges and one
stored vector per child, keeping a sum only while no vertex goes over
2^b - 1.  Storing only the minimal vectors suffices because a parent
can use any demand that a smaller one would also fit (Cygan et al.,
Parameterized Algorithms, 2015, ch. 7).

Colors are interchangeable: renaming them maps the valid colorings of
a subtree onto each other and leaves every demand unchanged.  So a
table holds one key per class of shared colorings, the first-use
canonical one, in which each color is at most 1 + the largest color
before it (a restricted growth string, Knuth, TAOCP 4A, 7.2.1.5); a
lookup first renames the colors in order of first use.  A bag fills
only the colorings that are first-use canonical in its shared-first
order, whose shared prefix is then canonical too: one per class
instead of up to k! of them.

State is polynomial in n for fixed width and b: colorings and demand
vectors range over bag vertices only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .decomposition import (
    TreeDecomposition,
    require_valid,
    shared_first_layout,
    validate_decomposition,
)
from .errors import PreconditionError
from .graph import Coloring, WeightedDigraph, is_valid_coloring
from .oracle import SolveResult

Vector = tuple[int, ...]


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
    offending arc in canonical order."""
    if bits < 1:
        raise PreconditionError(f"bits must be >= 1, got {bits}")
    scale = 1 << bits
    if scale % G.weight_scale == 0:
        return None
    return next((t, h, w) for t, h, w in G.arcs if scale % w.denominator)


def min_precision_bits(G: WeightedDigraph) -> int | None:
    """Smallest b >= 1 representing all weights, or None if some weight
    is not dyadic."""
    scale = G.weight_scale  # a power of two exactly when every denominator is
    if scale & (scale - 1):
        return None
    return max(1, scale.bit_length() - 1)


def _minimal(vectors) -> list[Vector]:
    """The antichain of componentwise-minimal vectors among `vectors`."""
    kept: list[Vector] = []
    for vec in sorted(set(vectors), key=sum):  # a dominating vector sorts first
        if not any(all(a <= b for a, b in zip(low, vec)) for low in kept):
            kept.append(vec)
    return kept


@lru_cache(maxsize=None)
def _first_use_extensions(length: int, k: int, top: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `length` colors in 1..k in which each color is at
    most 1 + the largest color before it, counting `top` as the largest
    color of an earlier prefix; in lexicographic order."""
    partial: list[tuple[tuple[int, ...], int]] = [((), top)]
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


class BudgetSolver:
    """One solve against a fixed graph, validated rooted decomposition,
    and precision; create a fresh instance per solve.

    With bits omitted, the smallest sufficient precision is detected;
    non-dyadic weights are rejected.
    """

    def __init__(self, G: WeightedDigraph, D: TreeDecomposition, bits: int | None = None):
        require_valid(validate_decomposition(G, D))
        if bits is None:
            bits = min_precision_bits(G)
            if bits is None:
                raise PreconditionError("weights are not dyadic; fpt-budget needs 2^-b weights")
        offending = check_fixed_point(G, bits)
        if offending is not None:
            t, h, w = offending
            raise PreconditionError(
                f"arc ({t}, {h}) weight {w} is not {bits}-bit fixed point",
                witness=offending,
            )
        self.graph = G
        self.decomposition = D
        self.bits = bits
        self.full = (1 << bits) - 1
        self.palette = max(1, D.width + 1)  # an empty bag has width -1

        self.shared_set, self.order, position, self._kids = shared_first_layout(D, D.bags)

        # each arc is charged at exactly one bag: the rootmost bag
        # containing both endpoints (its parent does not); the fixed-point
        # check makes weight_scale divide 2^bits
        factor = (1 << bits) // G.weight_scale
        self.charge_list: list[list[tuple[int, int, int]]] = []
        self._charges: list[list[tuple[int, int, int]]] = []
        for i, bag in enumerate(D.bags):
            parent = D.bags[D.parent[i]] if D.parent[i] is not None else frozenset()
            charges = sorted(
                (t, h, units * factor)
                for h in bag
                for t, units in G.in_units[h]
                if t in bag and not (t in parent and h in parent)
            )
            self.charge_list.append(charges)
            self._charges.append(
                [(position[i][t], position[i][h], units) for t, h, units in charges if units]
            )
        charged = sorted((t, h) for charges in self.charge_list for t, h, _ in charges)
        if charged != sorted((t, h) for t, h, _ in G.arcs):
            raise AssertionError("every arc must be charged at exactly one bag")

        self.tables: list[dict[tuple[int, ...], list[Vector]]] = [{} for _ in D.bags]
        self._k = 0  # k of the last decide(k)
        self._canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.considered_counts: dict[tuple[int, int], int] = {}
        self._stats = BudgetMemoStats(0, 0, 0, 0, 0)

    # -- decision DP ---------------------------------------------------

    def _layers(self, bag: int, colors: tuple[int, ...]) -> list[list[Vector]] | None:
        """Demand vectors over the bag's vertices (in self.order[bag])
        under `colors`: layer 0 holds the bag's own charges, layer j adds
        one stored vector of child j to each sum of layer j-1, keeping
        the minimal sums with no vertex over budget.  Each child is read
        under its shared colors renamed in order of first use.  None when
        a child has no entry for these colors or some layer is empty."""
        full = self.full
        canonical = self._canonical
        own = [0] * len(colors)
        for t, h, units in self._charges[bag]:
            if colors[t] == colors[h]:
                own[h] += units
        if max(own, default=0) > full:
            return None
        layers = [[tuple(own)]]
        for child, pos in self._kids[bag]:
            key = tuple([colors[p] for p in pos])
            canon = canonical.get(key)
            if canon is None:
                canon = canonical[key] = _first_use(key)
            front = self.tables[child].get(canon)
            if front is None:
                return None
            sums = []
            for base in layers[-1]:
                for demand in front:
                    total = list(base)
                    for p, units in zip(pos, demand):
                        total[p] += units
                    if all(total[p] <= full for p in pos):
                        sums.append(tuple(total))
            if not sums:
                return None
            # one base plus an antichain is an antichain already
            layers.append(sums if len(layers) == 1 else _minimal(sums))
        return layers

    def decide(self, k: int) -> bool:
        """Fill the demand tables for k colors, leaves first; True when
        the whole graph is k-colorable.  Each bag tries its first-use
        canonical colorings only.  Stops at the first bag whose table is
        empty."""
        if k < 1:
            raise PreconditionError(f"color count must be >= 1, got {k}")
        D = self.decomposition
        self.tables = [{} for _ in D.bags]
        self._k = k
        color_entries = distribute_entries = hits = width = 0
        feasible = True
        for bag in reversed(D.preorder):
            ns = len(self.shared_set[bag])
            width = max(width, len(self.order[bag]))
            found: dict[tuple[int, ...], list[Vector]] = {}
            for colors in _first_use_extensions(len(self.order[bag]), k, 0):
                layers = self._layers(bag, colors)
                if layers is not None:
                    hits += len(self._kids[bag])
                    distribute_entries += sum(len(layer) for layer in layers[1:])
                    found.setdefault(colors[:ns], []).extend(vec[:ns] for vec in layers[-1])
            table = self.tables[bag] = {key: _minimal(vecs) for key, vecs in found.items()}
            color_entries += sum(len(front) for front in table.values())
            if not table:
                feasible = False
                break
        self._stats = BudgetMemoStats(
            color_entries + distribute_entries, color_entries, distribute_entries, hits, width
        )
        return feasible

    def demands(self, bag: int, colors: Coloring) -> list[dict[int, int]]:
        """Minimal demand vectors stored for `bag` by the last decide(k),
        given the colors of its shared vertices; empty when no coloring
        of the subtree extends them.  Renaming the colors changes
        nothing."""
        shared = self.shared_set[bag]
        if set(colors) != shared:
            raise PreconditionError(
                f"colors must cover exactly the shared set of bag {bag}", witness=bag
            )
        if not all(1 <= c <= self._k for c in colors.values()):
            return []
        keys = self.order[bag][: len(shared)]
        front = self.tables[bag].get(_first_use(tuple(colors[v] for v in keys)), [])
        return [dict(zip(keys, demand)) for demand in front]

    # -- public API --------------------------------------------------

    def solve(self) -> SolveResult:
        k = next((k for k in range(1, self.palette + 1) if self.decide(k)), None)
        if k is None:
            raise AssertionError("width+1 colors always suffice")
        witness = self._replay(k)
        if not is_valid_coloring(self.graph, witness):
            raise AssertionError("replayed witness is not a valid coloring")
        return SolveResult(k, witness)

    def _replay(self, k: int) -> Coloring:
        """Rebuild one k-coloring from the tables of decide(k), root first.

        Each child gets the stored demand vector it was summed with as
        its budget; every bag is visited once, so the per-arc
        considered_counts end up exactly 1.  A bag renames its inherited
        colors in order of first use, tries the canonical extensions that
        decide(k) filled, and maps the one it keeps back, giving each new
        color the smallest real color not yet inherited.
        """
        witness: Coloring = {}
        stack: list[tuple[int, tuple[int, ...], Vector]] = [(self.decomposition.root, (), ())]
        while stack:
            bag, inherited, budget = stack.pop()
            ns = len(inherited)
            canon = _first_use(inherited)
            top = max(canon, default=0)
            for free in _first_use_extensions(len(self.order[bag]) - ns, k, top):
                colors = canon + free
                layers = self._layers(bag, colors)
                if layers is None:
                    continue
                total = next(
                    (vec for vec in layers[-1] if all(a <= b for a, b in zip(vec, budget))), None
                )
                if total is not None:
                    break
            else:
                raise AssertionError(f"replay failed to rediscover a stored demand at bag {bag}")
            # canonical colors above `top` are new: they take the real
            # colors not inherited, both in ascending order
            real = dict(zip(canon, inherited))
            real.update(zip(range(top + 1, k + 1), sorted(set(range(1, k + 1)) - set(inherited))))
            real_colors = [real[c] for c in colors]
            for v, c in zip(self.order[bag][ns:], real_colors[ns:]):
                if v in witness:
                    raise AssertionError(f"vertex {v} colored twice")
                witness[v] = c
            for t, h, _ in self.charge_list[bag]:
                self.considered_counts[(t, h)] = self.considered_counts.get((t, h), 0) + 1
            # walk the layers back: some stored vector of each child
            # leads from a sum of the previous layer to the current one
            for j in range(len(self._kids[bag]) - 1, -1, -1):
                child, pos = self._kids[bag][j]
                previous = set(layers[j])
                for demand in self.tables[child][_first_use(tuple(colors[p] for p in pos))]:
                    rest = list(total)
                    for p, units in zip(pos, demand):
                        rest[p] -= units
                    if tuple(rest) in previous:
                        break
                else:
                    raise AssertionError(f"replay lost the demand of child bag {child}")
                total = tuple(rest)
                stack.append((child, tuple(real_colors[p] for p in pos), demand))
        if set(witness) != set(self.graph.vertices):
            raise AssertionError("witness not total")
        return witness

    def memo_stats(self) -> BudgetMemoStats:
        return self._stats


def solve_fpt_budget(
    G: WeightedDigraph, D: TreeDecomposition, bits: int | None = None
) -> SolveResult:
    """Exact chromatic value and witness via the budget DP."""
    return BudgetSolver(G, D, bits).solve()
