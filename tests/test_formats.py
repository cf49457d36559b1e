from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bruteforce
from wicolor import (
    FormatError,
    TreeDecomposition,
    UndirectedWeightedGraph,
    WeightedDigraph,
    build_decomposition,
    parse_coloring,
    parse_decomposition,
    parse_digraph,
    parse_graph_auto,
    parse_undirected,
    random_instance,
    serialize_coloring,
    serialize_decomposition,
    serialize_digraph,
    serialize_undirected,
    validate_decomposition,
)
from wicolor.data import load_text

F = Fraction


class TestParseDigraph:
    def test_golden_file(self, golden5):
        assert golden5.n == 5
        assert len(golden5.arcs) == 9
        assert golden5.arc_weights[(3, 4)] == F(9, 10)
        assert golden5.arc_weights[(4, 2)] == F(3, 5)

    def test_weight_spellings(self):
        G = parse_digraph("p wig 3 3\ne 1 2 7/10\ne 2 3 0.7\ne 3 1 1\n")
        assert [w for _, _, w in G.arcs] == [F(7, 10), F(7, 10), F(1)]

    def test_comments_and_blank_lines(self):
        text = "# a digraph\n\np wig 2 1\n  # indented comment\ne 1 2 1/2\n"
        G = parse_digraph(text)
        assert G.arcs == ((1, 2, F(1, 2)),)

    def test_zero_vertices(self):
        assert parse_digraph("p wig 0 0\n").n == 0

    def test_missing_header(self):
        with pytest.raises(FormatError, match="missing header"):
            parse_digraph("# only a comment\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError) as info:
            parse_digraph("p wig 2\ne 1 2 1/2\n")
        assert info.value.line == 1

    def test_wrong_kind(self):
        with pytest.raises(FormatError, match="wig"):
            parse_digraph("p wug 2 1\ne 1 2 1/2\n")

    def test_duplicate_header(self):
        with pytest.raises(FormatError) as info:
            parse_digraph("p wig 2 1\np wig 2 1\ne 1 2 1/2\n")
        assert info.value.line == 2

    def test_weight_above_one(self):
        with pytest.raises(FormatError) as info:
            parse_digraph("p wig 2 1\ne 1 2 3/2\n")
        assert info.value.line == 2
        assert "outside" in info.value.bare_message

    def test_weight_not_rational(self):
        with pytest.raises(FormatError, match="not a rational"):
            parse_digraph("p wig 2 1\ne 1 2 heavy\n")

    def test_edge_line_token_count(self):
        with pytest.raises(FormatError, match="exactly"):
            parse_digraph("p wig 2 1\ne 1 2\n")

    def test_unexpected_line(self):
        with pytest.raises(FormatError, match="unexpected"):
            parse_digraph("p wig 2 1\nq 1 2 1/2\n")

    def test_fewer_edges_than_declared(self):
        with pytest.raises(FormatError, match="declared 2"):
            parse_digraph("p wig 3 2\ne 1 2 1/2\n")

    def test_more_edges_than_declared(self):
        with pytest.raises(FormatError) as info:
            parse_digraph("p wig 3 1\ne 1 2 1/2\ne 2 3 1/2\n")
        assert info.value.line == 3

    def test_endpoint_out_of_range(self):
        with pytest.raises(FormatError, match="outside"):
            parse_digraph("p wig 2 1\ne 1 3 1/2\n")
        with pytest.raises(FormatError, match="below"):
            parse_digraph("p wig 2 1\ne 0 1 1/2\n")

    def test_self_loop(self):
        with pytest.raises(FormatError, match="self-loop"):
            parse_digraph("p wig 2 1\ne 1 1 1/2\n")

    def test_duplicate_arc(self):
        with pytest.raises(FormatError, match="duplicate arc") as info:
            parse_digraph("p wig 2 2\ne 1 2 1/2\ne 1 2 1/4\n")
        assert info.value.line == 3

    def test_line_numbers_skip_comments(self):
        text = "# one\n# two\np wig 2 1\n# three\ne 1 2 5/2\n"
        with pytest.raises(FormatError) as info:
            parse_digraph(text)
        assert info.value.line == 5
        assert str(info.value).startswith("line 5:")


class TestParseUndirected:
    def test_prism_file(self, prism):
        assert prism.n == 10
        assert len(prism.edges) == 15
        weights = {w for _, _, w in prism.edges}
        assert weights == {F(1), F(1, 2)}

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(FormatError, match="duplicate edge") as info:
            parse_undirected("p wug 2 2\ne 1 2 1/2\ne 2 1 1/4\n")
        assert info.value.line == 3

    def test_auto_dispatch(self):
        assert isinstance(parse_graph_auto(load_text("golden5.wig")), WeightedDigraph)
        assert isinstance(parse_graph_auto(load_text("prism10.wug")), UndirectedWeightedGraph)

    def test_auto_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown graph kind"):
            parse_graph_auto("p col 2 1\ne 1 2 1/2\n")

    def test_auto_missing_header(self):
        with pytest.raises(FormatError, match="missing header"):
            parse_graph_auto("e 1 2 1/2\n")


GOOD_SPELLINGS = ("1/2", "0.5", "2/4", "5e-1", "1", "1.0", "0", "0/3")
BAD_TOKENS = ("3/2", "-1/4", "1/0", "x", "1/2/3")


def _random_graph_text(rng: random.Random) -> str:
    """A small `wig` or `wug` file whose weights mix spellings of a few
    values; some files get one bad token on two late lines, after good
    spellings have repeated, and some a repeated (for `wug` possibly
    reversed) pair."""
    kind = rng.choice(("wig", "wug"))
    n = rng.randint(2, 7)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    if kind == "wug":
        pairs = [(a, b) for a, b in pairs if a < b]
    m = rng.randint(0, min(len(pairs), 14))
    chosen = rng.sample(pairs, m)
    weights = [rng.choice(GOOD_SPELLINGS) for _ in chosen]
    if m >= 4 and rng.random() < 0.4:
        i, j = rng.sample(range(m // 2, m), 2)
        weights[i] = weights[j] = rng.choice(BAD_TOKENS)
    if m >= 2 and rng.random() < 0.25:
        i, j = sorted(rng.sample(range(m), 2))
        chosen[j] = chosen[i]
    if kind == "wug":
        chosen = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in chosen]
    lines = [f"p {kind} {n} {m}"]
    for (a, b), w in zip(chosen, weights):
        if rng.random() < 0.2:
            lines.append("# comment")
        lines.append(f"e {a} {b} {w}")
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


class TestMatchesReference:
    """The parser reads each distinct weight token once per file; the
    per-line `Fraction(token)` parser is the reference it must equal."""

    def test_random_texts(self):
        rng = random.Random(13)
        kinds = {"graph": 0, "weight": 0, "duplicate": 0}
        for _ in range(400):
            text = _random_graph_text(rng)
            got = _outcome(parse_graph_auto, text)
            assert got == _outcome(bruteforce.reference_parse_graph, text), text
            if not isinstance(got, tuple):
                kinds["graph"] += 1
            elif "duplicate" in got[0]:
                kinds["duplicate"] += 1
            else:
                kinds["weight"] += 1
        assert min(kinds.values()) >= 40, kinds

    @pytest.mark.parametrize("bad", BAD_TOKENS)
    def test_bad_token_raises_at_its_first_line(self, bad):
        text = f"p wig 4 4\ne 1 2 1/2\ne 2 3 0.5\ne 3 4 {bad}\ne 4 1 {bad}\n"
        with pytest.raises(FormatError) as info:
            parse_digraph(text)
        assert info.value.line == 4
        assert (str(info.value), info.value.line) == _outcome(
            bruteforce.reference_parse_graph, text
        )


class TestSerializeGraphs:
    def test_digraph_round_trip(self, golden5):
        assert parse_digraph(serialize_digraph(golden5)) == golden5

    def test_undirected_round_trip(self, prism):
        assert parse_undirected(serialize_undirected(prism)) == prism

    def test_serialization_is_canonical(self, golden5):
        text = serialize_digraph(golden5)
        assert text.splitlines()[0] == "p wig 5 9"
        assert parse_digraph(text) == golden5
        assert serialize_digraph(parse_digraph(text)) == text

    def test_weights_in_lowest_terms(self):
        G = WeightedDigraph(2, [(1, 2, F(5, 10))])
        assert "e 1 2 1/2" in serialize_digraph(G)

    def test_random_round_trips(self):
        for seed in range(20):
            G = random_instance(6, 0.5, seed=seed, weight_model="uniform-rational")
            assert parse_digraph(serialize_digraph(G)) == G


class TestColoringFormat:
    def test_golden_files(self, golden5_valid, golden5_invalid):
        assert golden5_valid == {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
        assert golden5_invalid == {1: 2, 2: 2, 3: 2, 4: 3, 5: 1}

    def test_round_trip(self):
        c = {3: 1, 1: 2, 2: 9}
        assert parse_coloring(serialize_coloring(c)) == c

    def test_serialized_sorted_by_vertex(self):
        assert serialize_coloring({2: 1, 1: 4}) == "1 4\n2 1\n"

    def test_empty(self):
        assert parse_coloring("# nothing\n") == {}

    def test_wrong_token_count(self):
        with pytest.raises(FormatError, match="exactly"):
            parse_coloring("1 2 3\n")

    def test_vertex_colored_twice(self):
        with pytest.raises(FormatError) as info:
            parse_coloring("1 1\n1 2\n")
        assert info.value.line == 2

    def test_color_must_be_positive(self):
        with pytest.raises(FormatError, match="below"):
            parse_coloring("1 0\n")

    def test_non_integer(self):
        with pytest.raises(FormatError, match="not an integer"):
            parse_coloring("1 red\n")


class TestDecompositionFormat:
    def test_round_trip_prism(self, prism):
        D = build_decomposition(prism, "exact-small")
        text = serialize_decomposition(D, n=prism.n)
        D2 = parse_decomposition(text)
        assert D2.width == D.width
        assert sorted(map(sorted, D2.bags)) == sorted(map(sorted, D.bags))
        assert D2.bags[D2.root] == D.bags[D.root]
        assert serialize_decomposition(D2, n=prism.n) == text

    def test_header_counts(self, golden5):
        D = build_decomposition(golden5, "min-fill")
        text = serialize_decomposition(D)
        header = text.splitlines()[0].split()
        assert header[:2] == ["s", "td"]
        assert int(header[2]) == len(D.bags)
        assert int(header[3]) == D.width + 1
        assert int(header[4]) == golden5.n

    def test_small_example(self):
        text = "s td 2 2 3\nc a comment\nb 1 1 2\nb 2 2 3\n1 2\n"
        D = parse_decomposition(text)
        assert D.bags == (frozenset({1, 2}), frozenset({2, 3}))
        assert D.tree_edges == ((0, 1),)
        assert D.root == 0
        assert D.width == 1

    def test_alternate_root(self):
        text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
        D = parse_decomposition(text, root_bag_id=2)
        assert D.bags[D.root] == frozenset({2, 3})

    def test_empty_bag_round_trip(self):
        D = TreeDecomposition([frozenset({1}), frozenset()], [(0, 1)])
        text = serialize_decomposition(D, n=1)
        assert "b 2\n" in text
        D2 = parse_decomposition(text)
        assert D2.bags == (frozenset({1}), frozenset())

    def test_single_bag(self):
        D = parse_decomposition("s td 1 3 3\nb 1 1 2 3\n")
        assert D.width == 2
        assert D.tree_edges == ()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing header"),
            ("b 1 1\n", "expected header"),
            ("s td 1 1 1\ns td 1 1 1\nb 1 1\n", "duplicate header"),
            ("s td 1 1 1\nb 1\nb 1 1\n", "declared twice"),
            ("s td 2 1 1\nb 1 1\nb 3 1\n1 2\n", "outside"),
            ("s td 1 1 1\nb 1 2\n", "outside"),
            ("s td 1 2 2\nb 1 1 1\n", "repeated"),
            ("s td 1 1 1\nb 1 1\n1 2 3\n", "edge line"),
            ("s td 2 1 1\nb 1 1\nb 2 1\n1 3\n", "outside"),
            ("s td 2 1 1\nb 1 1\n1 2\n", "never declared"),
            ("s td 1 2 1\nb 1 1\n", "max bag size"),
            ("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n2 3\n1 3\n", "tree"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(FormatError, match=message):
            parse_decomposition(text)

    def test_huge_bag_count_stops_at_the_first_missing_bag(self):
        # two lines declaring 10**15 bags: the search for an undeclared id
        # must stop by id len(bags) + 1.  The address-space cap makes a
        # search that lists every id fail with MemoryError instead of
        # taking the host's memory.
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from wicolor import FormatError, parse_decomposition\n"
            "try:\n"
            "    parse_decomposition('s td 1000000000000000 1 1\\nb 1 1\\n')\n"
            "except FormatError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "bag 2 never declared\n"

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("s td 2 1 1\nb 1 1\nb 2 1\n1 2\n2 1\n", "duplicate tree edge (1, 2)", 5),
            ("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n2 3\n1 2\n3 2\n", "duplicate tree edge (2, 3)", 7),
            ("s td 2 1 1\nb 1 1\n2 1\nc note\nb 2 1\n1 2\n", "duplicate tree edge (1, 2)", 6),
            ("s td 2 1 1\nb 1 1\nb 2 1\n1 1\n", "self-loop at bag 1", 4),
            ("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n2 2\n", "self-loop at bag 2", 6),
        ],
    )
    def test_tree_edge_errors_name_their_line(self, text, message, line):
        with pytest.raises(FormatError) as info:
            parse_decomposition(text)
        assert info.value.bare_message == message
        assert info.value.line == line

    def test_whole_file_errors_have_no_line(self):
        with pytest.raises(FormatError, match="cannot form a tree") as info:
            parse_decomposition("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n")
        assert info.value.line is None

    def test_bad_root_request(self):
        with pytest.raises(FormatError, match="root bag"):
            parse_decomposition("s td 1 1 1\nb 1 1\n", root_bag_id=2)

    def test_random_round_trips(self):
        for seed in range(12):
            G = random_instance(7, 0.4, seed=seed)
            D = build_decomposition(G, "min-fill")
            D2 = parse_decomposition(serialize_decomposition(D, n=G.n))
            assert D2.width == D.width
            assert validate_decomposition(G, D2) == []
