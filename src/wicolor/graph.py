"""Weighted digraph model and the coloring validity predicate.

Vertices are the dense integers 1..n.  Arc weights are exact rationals
in [0, 1]; every comparison in the package is exact, so validity of a
coloring never depends on floating point rounding.  Floats are rejected
outright at construction time instead of being converted.  Solvers and
checks read an integer view with one unit per vertex: `scale[v]` is the
lcm of the denominators of v's in-arc weights, and `in_units[v]` holds
each in-arc's weight times scale[v], so v's indegree is below 1 exactly
when its units are below scale[v].  A vertex's constraint reads only its
own in-arcs, so no unit is shared between vertices, and the integers
stay as long as the largest per-vertex lcm.

A coloring c is valid when every vertex v has same-color weighted
indegree strictly below 1, i.e. the weights of arcs u -> v with
c[u] == c[v] sum to less than 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, TypeVar

from .errors import DuplicateEdgeError, PreconditionError

_Graph = TypeVar("_Graph", "WeightedDigraph", "UndirectedWeightedGraph")


# The largest decimal exponent, in magnitude, a weight spelling may
# carry: Fraction builds 10**exponent, so `1e-10000000` would take
# seconds.  It is the digit limit `int` already applies to every
# integer token.
MAX_EXPONENT = 4300


def parse_rational(token: str) -> Fraction:
    """`Fraction(token)`, with a plain ASCII `p/q` read from its two
    integers, and OverflowError for a decimal exponent above
    MAX_EXPONENT in magnitude instead of building 10**exponent."""
    num, slash, den = token.partition("/")
    if slash:
        if num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
            return Fraction(int(num), int(den))
        return Fraction(token)
    at = next((i for i, ch in enumerate(token) if ch in "eE"), None)
    if at is not None:
        digits = token[at + 1 :]
        # zeroing each exponent digit keeps the spelling valid exactly when it was
        Fraction(token[:at] + "e" + "".join("0" if ch.isdecimal() else ch for ch in digits))
        if abs(int(digits)) > MAX_EXPONENT:
            raise OverflowError
    return Fraction(token)


def as_weight(value: Fraction | int | str) -> Fraction:
    """Coerce `value` to an exact weight in [0, 1].

    Accepts Fraction, int, and strings Fraction understands ("7/10",
    "0.7", "1") whose decimal exponent is at most MAX_EXPONENT in
    magnitude, as the file parser does.  Floats are refused: they carry
    binary rounding error and would silently change strict comparisons
    against 1.  Booleans are refused too, as vertices are: True is an
    int equal to 1.
    """
    if isinstance(value, Fraction):
        w = value
    elif isinstance(value, float):
        raise TypeError(f"float weight {value!r} refused; pass a Fraction or a string")
    elif isinstance(value, bool):
        raise TypeError(f"boolean weight {value!r} refused; pass 0 or 1")
    elif isinstance(value, int):
        w = Fraction(value)
    elif isinstance(value, str):
        try:
            w = parse_rational(value)
        except OverflowError:
            raise ValueError(
                f"weight {value!r} has an exponent above {MAX_EXPONENT} in magnitude"
            ) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse weight {value!r}") from exc
    else:
        raise TypeError(f"unsupported weight type {type(value).__name__}")
    # denominators are positive, so this is 0 <= w <= 1 on integers
    if not 0 <= w.numerator <= w.denominator:
        raise ValueError(f"weight {w} outside [0, 1]")
    return w


def cap(w: Fraction) -> int:
    """Largest m with m*w < 1, for a weight 0 < w <= 1.

    For w = p/q in lowest terms this is (q - 1) // p; in particular
    cap(1) == 0 and cap(1/2) == 1.  The strict inequality matters:
    cap gives the most same-colored in-neighbors of weight w a vertex
    tolerates.
    """
    if not 0 < w <= 1:
        raise PreconditionError(f"cap requires 0 < w <= 1, got {w}", witness=w)
    return (w.denominator - 1) // w.numerator


def _check_int(v: object, role: str) -> None:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"{role} must be an int, got {v!r}")


def _check_vertex(n: int, v: object, role: str) -> int:
    _check_int(v, role)
    if not 1 <= v <= n:
        raise ValueError(f"{role} {v} outside 1..{n}")
    return v


def _checked(n: int, triples: Iterable[tuple], directed: bool) -> list[tuple[int, int, Fraction]]:
    """The triples of a graph on 1..n as (a, b, weight), checked in the
    words of its kind (arcs when `directed`, else edges, each turned
    smaller endpoint first); `_store` takes the list as it is.  An int
    endpoint in 1..n and a Fraction weight in [0, 1] pass at once, and
    anything else gets what `_check_vertex` and `as_weight` give."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")
    roles = ("arc tail", "arc head") if directed else ("edge endpoint", "edge endpoint")
    canon: list[tuple[int, int, Fraction]] = []
    seen: set[tuple[int, int]] = set()
    for a, b, weight in triples:
        if not (type(a) is int and type(b) is int and 0 < a <= n and 0 < b <= n):
            _check_vertex(n, a, roles[0])
            _check_vertex(n, b, roles[1])
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not directed and a > b:
            a, b = b, a
        if (a, b) in seen:
            what = f"arc ({a}, {b})" if directed else f"edge {{{a}, {b}}}"
            raise DuplicateEdgeError(f"duplicate {what}", len(canon))
        seen.add((a, b))
        if type(weight) is not Fraction or not 0 <= weight.numerator <= weight.denominator:
            weight = as_weight(weight)
        canon.append((a, b, weight))
    return canon


def _store(graph: _Graph, n: int, triples: list[tuple[int, int, Fraction]]) -> _Graph:
    """Give `graph` the vertex count n and the triples, sorted, as its arcs
    or edges, and return it; the triples are already checked."""
    triples.sort()
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "arcs" if isinstance(graph, WeightedDigraph) else "edges", tuple(triples))
    return graph


@dataclass(frozen=True, init=False)
class WeightedDigraph:
    """Immutable weighted digraph on vertices 1..n.

    `arcs` is canonicalized to a tuple of (tail, head, weight) triples
    sorted lexicographically, so structurally equal graphs compare and
    hash equal regardless of input order.  Self-loops and parallel arcs
    are rejected; antiparallel pairs u -> v and v -> u are fine.
    """

    n: int
    arcs: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, Fraction | int | str]] = ()):
        _store(self, n, _checked(n, arcs, directed=True))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def arc_weights(self) -> dict[tuple[int, int], Fraction]:
        return {(t, h): w for t, h, w in self.arcs}

    @cached_property
    def in_neighbors(self) -> dict[int, frozenset[int]]:
        """Tails of arcs into each vertex, regardless of weight."""
        acc: dict[int, set[int]] = {v: set() for v in self.vertices}
        for t, h, _ in self.arcs:
            acc[h].add(t)
        return {v: frozenset(s) for v, s in acc.items()}

    @cached_property
    def scale(self) -> dict[int, int]:
        """For each vertex v, the lcm of the denominators of v's in-arc
        weights (1 when v has none): v's integer unit is 1/scale[v]."""
        acc = dict.fromkeys(self.vertices, 1)
        for _, h, w in self.arcs:
            acc[h] = lcm(acc[h], w.denominator)
        return acc

    @cached_property
    def in_units(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """For each vertex v, the (tail, weight * scale[v]) pairs of arcs
        into v, in arc order.  The units are integers, so a same-colored
        indegree of v stays below 1 exactly when its units stay below
        scale[v]."""
        scale = self.scale
        acc: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for t, h, w in self.arcs:
            acc[h].append((t, w.numerator * (scale[h] // w.denominator)))
        return {v: tuple(pairs) for v, pairs in acc.items()}


@dataclass(frozen=True, init=False)
class UndirectedWeightedGraph:
    """Immutable weighted undirected simple graph on vertices 1..n.

    Edges are canonicalized to sorted (u, v, weight) triples with u < v.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, Fraction | int | str]] = ()):
        _store(self, n, _checked(n, edges, directed=False))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        acc: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            acc[u].append((v, w))
            acc[v].append((u, w))
        return {v: tuple(sorted(pairs)) for v, pairs in acc.items()}

    def degree(self, v: int) -> int:
        _check_vertex(self.n, v, "vertex")
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(p) for p in self.adjacency.values()), default=0)


Coloring = dict[int, int]


@dataclass(frozen=True)
class SolveResult:
    """A minimum color count together with one coloring achieving it."""

    chromatic: int
    witness: Coloring
    # vertices the oracle's choice rule examined over every k it tried
    # (0 from the DP solvers); a cost, not part of the answer
    examined: int = field(default=0, compare=False)


def check_total_coloring(n: int, coloring: Coloring) -> None:
    """Raise PreconditionError unless `coloring` maps exactly 1..n to colors >= 1."""
    expected = set(range(1, n + 1))
    got = set(coloring)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"uncolored vertices {missing}")
        if extra:
            detail.append(f"unknown vertices {extra}")
        raise PreconditionError(
            "coloring is not total on 1..%d (%s)" % (n, "; ".join(detail)),
            witness=(missing or extra)[0],
        )
    for v in range(1, n + 1):
        c = coloring[v]
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise PreconditionError(f"vertex {v} has invalid color {c!r}", witness=v)


def weighted_indegree(G: WeightedDigraph, v: int) -> Fraction:
    """Sum of weights of arcs into v."""
    _check_vertex(G.n, v, "vertex")
    return Fraction(sum(units for _, units in G.in_units[v]), G.scale[v])


def max_weighted_indegree(G: WeightedDigraph) -> Fraction:
    """Largest weighted indegree over all vertices; 0 for the empty graph."""
    return max((weighted_indegree(G, v) for v in G.vertices), default=Fraction(0))


def coloring_violations(G: WeightedDigraph, coloring: Coloring) -> list[tuple[int, Fraction]]:
    """Vertices whose same-color weighted indegree reaches 1, with that indegree.

    Returned in ascending vertex order; empty exactly when the coloring
    is valid.  Requires a total coloring of 1..n.
    """
    check_total_coloring(G.n, coloring)
    scale = G.scale
    out: list[tuple[int, Fraction]] = []
    for v, pairs in G.in_units.items():
        c = coloring[v]
        d = sum([units for t, units in pairs if coloring[t] == c])
        if d >= scale[v]:
            out.append((v, Fraction(d, scale[v])))
    return out


def is_valid_coloring(G: WeightedDigraph, coloring: Coloring) -> bool:
    """True iff every vertex keeps same-color weighted indegree strictly below 1."""
    return not coloring_violations(G, coloring)


def underlying_graph(G: WeightedDigraph) -> UndirectedWeightedGraph:
    """Forget orientation: edge {u, v} iff some arc joins u and v.

    When both arcs u -> v and v -> u exist the edge carries the larger
    of the two weights, the one that binds first in degree-based bounds.
    """
    best: dict[tuple[int, int], Fraction] = {}
    for t, h, w in G.arcs:
        key = (t, h) if t < h else (h, t)
        if key not in best or w > best[key]:
            best[key] = w
    # G's arcs were checked when G was built, so the edges are valid
    edges = [(u, v, w) for (u, v), w in best.items()]
    return _store(object.__new__(UndirectedWeightedGraph), G.n, edges)


def embed_undirected(H: UndirectedWeightedGraph) -> WeightedDigraph:
    """Replace each edge {u, v} of weight w by the two arcs u -> v and v -> u of weight w.

    A coloring is valid for the result iff for every edge and color
    class it avoids weight-sum 1 in both directions, which matches the
    defective-coloring reading of an undirected instance.
    """
    arcs: list[tuple[int, int, Fraction]] = []
    for u, v, w in H.edges:
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    # H's edges were checked when H was built, so the arcs are valid
    return _store(object.__new__(WeightedDigraph), H.n, arcs)
