"""Text formats for graphs, colorings, and tree decompositions.

All four formats are line-oriented UTF-8 with '#' comment lines.

Directed graph:      header `p wig <n> <m>`, then m lines `e <tail> <head> <weight>`.
Undirected graph:    header `p wug <n> <m>`, then m lines `e <u> <v> <weight>`.
Coloring:            lines `<vertex> <color>`.
Tree decomposition:  header `s td <bags> <max-bag-size> <n>`, bag lines
                     `b <bag-id> <v...>`, then bag-tree edge lines `<i> <j>`
                     ('c' comment lines also accepted, as is customary for
                     this style of file).  Bag 1 is the root.

Weights may be written as a fraction `7/10`, an integer, or a decimal
`0.7`; they are parsed exactly and serialized in lowest terms.  Each
graph line is split once and each arc checked once, in the parse loop:
endpoints are read by `int`, a plain ASCII `p/q` weight as
`Fraction(int(p), int(q))` and any other spelling by `Fraction(token)`,
so values and errors are theirs, and a repeated pair is looked up in
one set.  The graph then stores the checked arcs through the helper
both constructors use, without their second check.  Each distinct
weight spelling is parsed once per file and reused for its later
lines.  Errors come in line order, except that the first duplicate is raised only once every
line and the edge count have passed: a bad token on a later line, or a
short count, is reported instead.  Two limits guard the parse: a graph
header may declare at most MAX_VERTICES (100 000) vertices, and a weight's
decimal exponent may be at most MAX_EXPONENT (4300) in magnitude.
Parse failures raise FormatError carrying the 1-based line number; for
a duplicate arc, edge or bag-tree edge, that of the line repeating it.
"""

from __future__ import annotations

from fractions import Fraction

from .decomposition import TreeDecomposition
from .errors import DuplicateEdgeError, FormatError
from .graph import (
    MAX_EXPONENT,
    Coloring,
    UndirectedWeightedGraph,
    WeightedDigraph,
    _store,
    parse_rational,
)


# The largest vertex count a graph header may declare.  `wicolor solve`
# spends about 2.5 KB and 50 us per vertex on an arc-free graph (2-core
# x86 host), so at this cap it peaks near 250 MB and answers in about
# 5 s; at ten times it the decomposition build runs out of a 1 GB
# address space.
MAX_VERTICES = 100_000


def _content_lines(text: str, extra_comment: str = "") -> list[tuple[int, list[str]]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#" or tokens[0] == extra_comment:
            continue
        out.append((line_no, tokens))
    return out


def _parse_int(token: str, line_no: int, what: str, minimum: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"{what} {token!r} is not an integer", line_no) from None
    if value < minimum:
        raise FormatError(f"{what} {value} below {minimum}", line_no)
    return value


def _parse_weight(token: str, line_no: int) -> Fraction:
    try:
        w = parse_rational(token)
    except OverflowError:
        raise FormatError(
            f"weight {token!r} has an exponent above {MAX_EXPONENT} in magnitude", line_no
        ) from None
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"weight {token!r} is not a rational", line_no) from None
    # denominators are positive, so this is 0 <= w <= 1 on integers
    if not 0 <= w.numerator <= w.denominator:
        raise FormatError(f"weight {token} outside [0, 1]", line_no)
    return w


def _parse_graph(lines: list[tuple[int, list[str]]], header_kind: str):
    """The graph of kind "wig" or "wug" on already tokenized lines."""
    if not lines:
        raise FormatError("missing header line")
    head_no, head = lines[0]
    if len(head) != 4 or head[0] != "p":
        raise FormatError(f"expected header 'p {header_kind} <n> <m>'", head_no)
    if head[1] != header_kind:
        raise FormatError(f"expected graph kind {header_kind!r}, got {head[1]!r}", head_no)
    n = _parse_int(head[2], head_no, "vertex count")
    m = _parse_int(head[3], head_no, "edge count")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} above the limit {MAX_VERTICES}", head_no)
    digraph = header_kind == "wig"
    triples: list[tuple[int, int, Fraction]] = []
    # the first repeated pair, raised once the lines and the count pass,
    # so that a bad token on a later line still raises first
    seen: set[tuple[int, int]] = set()
    duplicate: FormatError | None = None
    # each distinct spelling is parsed and range-checked once per file; a
    # bad token raises before it is stored, so it raises at its first line
    weights: dict[str, Fraction] = {}
    for line_no, tokens in lines[1:]:
        if tokens[0] == "p":
            raise FormatError("duplicate header", line_no)
        if tokens[0] != "e":
            raise FormatError(f"unexpected line {' '.join(tokens)!r}", line_no)
        if len(tokens) != 4:
            raise FormatError("edge line needs exactly 'e <a> <b> <weight>'", line_no)
        if len(triples) == m:
            raise FormatError(f"more than the declared {m} edge lines", line_no)
        _, ta, tb, tw = tokens
        try:
            a, b = int(ta), int(tb)
        except ValueError:
            a = b = 0  # _parse_int below raises the message
        if not (0 < a <= n and 0 < b <= n):
            _parse_int(ta, line_no, "endpoint", minimum=1)
            _parse_int(tb, line_no, "endpoint", minimum=1)
            raise FormatError(f"endpoint outside 1..{n}", line_no)
        if a == b:
            raise FormatError(f"self-loop at vertex {a}", line_no)
        if not digraph and a > b:
            a, b = b, a
        if (a, b) not in seen:
            seen.add((a, b))
        elif duplicate is None:
            what = f"arc ({a}, {b})" if digraph else f"edge {{{a}, {b}}}"
            duplicate = FormatError(f"duplicate {what}", line_no)
        w = weights.get(tw)
        if w is None:
            w = weights[tw] = _parse_weight(tw, line_no)
        triples.append((a, b, w))
    if len(triples) != m:
        raise FormatError(f"declared {m} edges but found {len(triples)}")
    if duplicate is not None:
        raise duplicate
    # every triple is checked above, so the graph takes them as they are
    return _store(object.__new__(WeightedDigraph if digraph else UndirectedWeightedGraph), n, triples)


def parse_digraph(text: str) -> WeightedDigraph:
    return _parse_graph(_content_lines(text), "wig")


def parse_undirected(text: str) -> UndirectedWeightedGraph:
    return _parse_graph(_content_lines(text), "wug")


def parse_graph_auto(text: str) -> WeightedDigraph | UndirectedWeightedGraph:
    """Parse either graph format, deciding by the header kind."""
    lines = _content_lines(text)
    head = lines[0][1] if lines else []
    if len(head) < 2 or head[0] != "p":
        raise FormatError("missing header line")
    if head[1] not in ("wig", "wug"):
        raise FormatError(f"unknown graph kind {head[1]!r}", lines[0][0])
    return _parse_graph(lines, head[1])


def _serialize_graph(kind: str, n: int, triples: tuple) -> str:
    lines = [f"p {kind} {n} {len(triples)}"]
    lines.extend(f"e {a} {b} {w}" for a, b, w in triples)
    return "\n".join(lines) + "\n"


def serialize_digraph(G: WeightedDigraph) -> str:
    return _serialize_graph("wig", G.n, G.arcs)


def serialize_undirected(H: UndirectedWeightedGraph) -> str:
    return _serialize_graph("wug", H.n, H.edges)


def parse_coloring(text: str) -> Coloring:
    coloring: Coloring = {}
    for line_no, tokens in _content_lines(text):
        if len(tokens) != 2:
            raise FormatError("coloring line needs exactly '<vertex> <color>'", line_no)
        v = _parse_int(tokens[0], line_no, "vertex", minimum=1)
        c = _parse_int(tokens[1], line_no, "color", minimum=1)
        if v in coloring:
            raise FormatError(f"vertex {v} colored twice", line_no)
        coloring[v] = c
    return coloring


def serialize_coloring(coloring: Coloring) -> str:
    return "".join(f"{v} {coloring[v]}\n" for v in sorted(coloring))


def parse_decomposition(text: str, n: int) -> TreeDecomposition:
    """Parse a decomposition file of a graph on n vertices, rooted at its
    bag 1; a header that declares another vertex count is refused."""
    lines = _content_lines(text, extra_comment="c")
    if not lines:
        raise FormatError("missing header line")
    head_no, head = lines[0]
    if len(head) != 5 or head[0] != "s" or head[1] != "td":
        raise FormatError("expected header 's td <bags> <max-bag-size> <n>'", head_no)
    count = _parse_int(head[2], head_no, "bag count", minimum=1)
    declared_max = _parse_int(head[3], head_no, "max bag size")
    declared_n = _parse_int(head[4], head_no, "vertex count")
    if declared_n != n:
        raise FormatError(f"header vertex count {declared_n} is not the graph's {n}", head_no)
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for line_no, tokens in lines[1:]:
        if tokens[0] == "s":
            raise FormatError("duplicate header", line_no)
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise FormatError("bag line needs 'b <bag-id> <v...>'", line_no)
            bag_id = _parse_int(tokens[1], line_no, "bag id", minimum=1)
            if bag_id > count:
                raise FormatError(f"bag id {bag_id} outside 1..{count}", line_no)
            if bag_id in bags:
                raise FormatError(f"bag {bag_id} declared twice", line_no)
            members: set[int] = set()
            for token in tokens[2:]:
                v = _parse_int(token, line_no, "vertex", minimum=1)
                if v > n:
                    raise FormatError(f"vertex {v} outside 1..{n}", line_no)
                if v in members:
                    raise FormatError(f"vertex {v} repeated in bag {bag_id}", line_no)
                members.add(v)
            bags[bag_id] = frozenset(members)
        else:
            if len(tokens) != 2:
                raise FormatError("bag-tree edge line needs '<i> <j>'", line_no)
            a = _parse_int(tokens[0], line_no, "bag id", minimum=1)
            b = _parse_int(tokens[1], line_no, "bag id", minimum=1)
            if a > count or b > count:
                raise FormatError(f"bag id outside 1..{count}", line_no)
            if a == b:
                raise FormatError(f"self-loop at bag {a}", line_no)
            edges.append((a - 1, b - 1))
            edge_lines.append(line_no)
    # the ids are distinct, so this stops by id len(bags) + 1 whatever the count
    missing = next((i for i in range(1, count + 1) if i not in bags), None)
    if missing is not None:
        raise FormatError(f"bag {missing} never declared")
    actual_max = max(len(b) for b in bags.values())
    if actual_max != declared_max:
        raise FormatError(f"header claims max bag size {declared_max}, actual {actual_max}")
    try:
        return TreeDecomposition([bags[i] for i in range(1, count + 1)], edges, root=0)
    except DuplicateEdgeError as exc:
        a, b = sorted(edges[exc.index])
        raise FormatError(f"duplicate tree edge ({a + 1}, {b + 1})", edge_lines[exc.index]) from None
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_decomposition(D: TreeDecomposition, n: int) -> str:
    """Serialize with the root as bag 1 (bags re-indexed if needed); `n`
    is the graph's vertex count for the header."""
    count = len(D.bags)
    perm = [D.root] + [i for i in range(count) if i != D.root]
    new_index = {old: new for new, old in enumerate(perm)}
    max_size = max(len(bag) for bag in D.bags)
    lines = [f"s td {count} {max_size} {n}"]
    for new, old in enumerate(perm, start=1):
        members = " ".join(str(v) for v in sorted(D.bags[old]))
        lines.append(f"b {new}{' ' + members if members else ''}")
    remapped = sorted(
        tuple(sorted((new_index[a] + 1, new_index[b] + 1))) for a, b in D.tree_edges
    )
    lines.extend(f"{a} {b}" for a, b in remapped)
    return "\n".join(lines) + "\n"
