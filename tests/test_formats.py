from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from test_decomposition import benchmark_cases
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
    partition_instance,
    random_instance,
    random_subcubic_instance,
    serialize_coloring,
    serialize_decomposition,
    serialize_digraph,
    serialize_undirected,
    validate_decomposition,
)
from wicolor.data import load_text
from wicolor.formats import MAX_EXPONENT, MAX_VERTICES

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
    """The parser checks each arc once; the parser that stripped, split
    and parsed every token on its own is the reference it must equal."""

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


def _shuffled_text(graph, rng: random.Random) -> str:
    """The graph's file with its edge lines in random order and, for a
    `wug`, each edge's endpoints swapped at random."""
    if isinstance(graph, WeightedDigraph):
        header, *body = serialize_digraph(graph).splitlines()
    else:
        header, *body = serialize_undirected(graph).splitlines()
        flipped = []
        for line in body:
            tag, a, b, w = line.split()
            flipped.append(f"{tag} {b} {a} {w}" if rng.random() < 0.5 else line)
        body = flipped
    rng.shuffle(body)
    return "\n".join([header, *body]) + "\n"


def bench_family_graphs():
    """The benchmark's library families and the graph kinds of its CLI
    files, each built by the checked constructors."""
    yield from benchmark_cases()
    for elements in ([3, 1, 1, 2, 2, 1], [5, 9, 4, 11, 19, 6, 1, 14]):
        yield partition_instance(elements)[0]
    for p, bits in ((0.4, 1), (0.4, 2), (0.5, 1)):
        yield random_instance(10, p, seed=0, bits=bits)
    yield random_instance(14, 0.3, seed=11, weight_model="uniform-rational")
    for n in (12, 18, 24):
        yield random_subcubic_instance(n, seed=0)


class TestCheckedOnce:
    """The parser checks each arc once and builds the graph without the
    constructors' second check; it must still give the graph, and the
    hash, that the checked constructors give, and raise the errors in
    the order they raised them."""

    def test_bench_families(self):
        rng = random.Random(28)
        for graph in bench_family_graphs():
            got = parse_graph_auto(_shuffled_text(graph, rng))
            assert type(got) is type(graph)
            assert got == graph
            assert hash(got) == hash(graph)

    def test_random_texts(self):
        rng = random.Random(28)
        graphs = 0
        for _ in range(400):
            text = _random_graph_text(rng)
            got = _outcome(parse_graph_auto, text)
            expected = _outcome(bruteforce.reference_parse_graph, text)
            assert got == expected, text
            if not isinstance(got, tuple):
                graphs += 1
                assert type(got) is type(expected)
                assert hash(got) == hash(expected)
        assert graphs >= 100

    @pytest.mark.parametrize(
        "text, line, message",
        [
            # a bad token on a later line is reported before a duplicate
            ("p wig 3 3\ne 1 2 1/2\ne 1 2 1/4\ne 2 3 x\n", 4, "weight 'x' is not a rational"),
            ("p wig 3 3\ne 1 2 1/2\ne 1 2 1/4\ne 2 9 1/2\n", 4, "endpoint outside 1..3"),
            ("p wig 3 2\ne 1 2 1/2\ne 1 2 1/4\ne 2 3 1/2\n", 4, "more than the declared 2 edge lines"),
            # so is a short edge count
            ("p wig 3 3\ne 1 2 1/2\ne 1 2 1/4\n", None, "declared 3 edges but found 2"),
            # of two duplicates, the first to repeat
            ("p wig 3 4\ne 1 2 1/2\ne 2 3 1/2\ne 2 3 1/4\ne 1 2 1/4\n", 4, "duplicate arc (2, 3)"),
            # a reversed edge repeats it, at the repeating line
            ("p wug 3 2\ne 1 2 1/2\n# c\ne 2 1 1/4\n", 4, "duplicate edge {1, 2}"),
            # a reversed arc does not
            ("p wig 3 3\ne 1 2 1/2\ne 2 1 1/2\ne 2 1 1/4\n", 4, "duplicate arc (2, 1)"),
        ],
    )
    def test_error_order(self, text, line, message):
        with pytest.raises(FormatError) as info:
            parse_graph_auto(text)
        assert (info.value.line, info.value.bare_message) == (line, message)
        assert (str(info.value), info.value.line) == _outcome(bruteforce.reference_parse_graph, text)


BUNDLED_GRAPHS = (load_text("golden5.wig"), load_text("prism10.wug"))
MUTANT_WEIGHTS = (
    "+1/2", "1_0/20", "١/٢", ".5", "1e-1", "1/0", "3/2", "1E-2", "0.5e1", "1e+0",
    "1e-4300", "1e-4301", "0e5000", "1e-1_0", "1e2e3", "1/2e5", "e5", "1e", "0x1", "½",
)
MUTANT_TOKENS = ("p", "e", "wig", "wug", "#", "#e", "0", "-1", "1", "2", "x", "1.5", "١", "10", "16")
NEW_REFUSALS = (
    f"above {MAX_EXPONENT} in magnitude",  # a weight exponent beyond MAX_EXPONENT
    f"above the limit {MAX_VERTICES}",  # a header vertex count beyond MAX_VERTICES
)


@st.composite
def mutated_graph_texts(draw):
    """A bundled graph file after one to three edits: drop, insert, swap
    or replace a token, truncate, drop, repeat or comment out a line, put
    an endpoint out of range, change a header count, or respell a
    weight."""
    lines = draw(st.sampled_from(BUNDLED_GRAPHS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = draw(st.integers(0, max(0, len(tokens) - 1)))
        move = draw(
            st.sampled_from(
                (
                    "drop", "insert", "swap", "replace", "truncate",
                    "drop line", "repeat", "comment", "id", "count", "weight",
                )
            )
        )
        if move == "drop" and tokens:
            del tokens[j]
        elif move == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(MUTANT_TOKENS)))
        elif move == "swap" and tokens:
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif move == "replace" and tokens:
            tokens[j] = draw(st.sampled_from(MUTANT_TOKENS))
        elif move == "truncate":
            tokens = lines[i][: draw(st.integers(0, len(lines[i])))].split()
        elif move == "drop line":
            del lines[i]
            continue
        elif move == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        elif move == "comment":
            lines[i] = "#" + lines[i]
            continue
        elif move == "id" and len(tokens) == 4:
            tokens[draw(st.integers(1, 2))] = draw(st.sampled_from(("0", "11", "-3", "10" * 8)))
        elif move == "count":
            i = next((k for k, line in enumerate(lines) if line.startswith("p ")), i)
            tokens = lines[i].split()
            if len(tokens) == 4:
                tokens[draw(st.integers(2, 3))] = draw(
                    st.sampled_from(("0", "9", "16", str(MAX_VERTICES), str(MAX_VERTICES + 1), "10" * 8))
                )
        elif move == "weight" and len(tokens) == 4 and tokens[0] == "e":
            tokens[3] = draw(st.sampled_from(MUTANT_WEIGHTS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestMalformedInput:
    def test_mutated_files_match_reference(self):
        """The same graph, or the same FormatError message and line, as the
        reference, except where a new refusal applies; never another
        exception.  The mutations reach graphs, old refusals and both new
        ones, so the property is not vacuous."""
        seen = set()

        @given(mutated_graph_texts())
        @settings(max_examples=400, deadline=None, derandomize=True)
        def matches(text):
            got = _outcome(parse_graph_auto, text)
            new = [r for r in NEW_REFUSALS if isinstance(got, tuple) and r in got[0]]
            if new:
                seen.add(new[0])
                return
            assert got == _outcome(bruteforce.reference_parse_graph, text), text
            seen.add("refusal" if isinstance(got, tuple) else "graph")

        matches()
        assert seen == {"graph", "refusal", *NEW_REFUSALS}

    def test_huge_exponent_refused_fast(self):
        """`Fraction` would build 10**10000000 (seconds) and accept the value."""
        start = time.perf_counter()
        with pytest.raises(FormatError, match=f"exponent above {MAX_EXPONENT}") as info:
            parse_digraph("p wig 2 1\ne 1 2 1e-10000000\n")
        assert time.perf_counter() - start < 1.0
        assert info.value.line == 2

    @pytest.mark.parametrize("token", ("1e-4301", "1E+4301", "0e4301", "0.5e-1_0000"))
    def test_exponent_limit(self, token):
        with pytest.raises(FormatError, match="exponent above") as info:
            parse_undirected(f"p wug 2 1\n# c\ne 1 2 {token}\n")
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "token, value",
        (("1e-4300", F(1, 10**4300)), ("0e4300", F(0)), ("5e-1", F(1, 2)), ("1/2", F(1, 2))),
    )
    def test_within_exponent_limit(self, token, value):
        assert parse_digraph(f"p wig 2 1\ne 1 2 {token}\n").arcs == ((1, 2, value),)

    def test_vertex_count_limit(self):
        assert parse_digraph(f"p wig {MAX_VERTICES} 0\n").n == MAX_VERTICES
        for n in (MAX_VERTICES + 1, 10**15):
            for kind in ("wig", "wug"):
                with pytest.raises(FormatError, match=f"vertex count {n} above the limit") as info:
                    parse_graph_auto(f"# big\np {kind} {n} 0\n")
                assert info.value.line == 2


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
        D2 = parse_decomposition(text, prism.n)
        assert D2.width == D.width
        assert sorted(map(sorted, D2.bags)) == sorted(map(sorted, D.bags))
        assert D2.bags[D2.root] == D.bags[D.root]
        assert serialize_decomposition(D2, n=prism.n) == text

    def test_header_counts(self, golden5):
        D = build_decomposition(golden5, "min-fill")
        text = serialize_decomposition(D, n=golden5.n)
        header = text.splitlines()[0].split()
        assert header[:2] == ["s", "td"]
        assert int(header[2]) == len(D.bags)
        assert int(header[3]) == D.width + 1
        assert int(header[4]) == golden5.n

    def test_small_example(self):
        text = "s td 2 2 3\nc a comment\nb 1 1 2\nb 2 2 3\n1 2\n"
        D = parse_decomposition(text, 3)
        assert D.bags == (frozenset({1, 2}), frozenset({2, 3}))
        assert D.tree_edges == ((0, 1),)
        assert D.root == 0
        assert D.width == 1

    def test_alternate_root(self):
        text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
        D = parse_decomposition(text, 3).root_at(1)
        assert D.bags[D.root] == frozenset({2, 3})

    def test_empty_bag_round_trip(self):
        D = TreeDecomposition([frozenset({1}), frozenset()], [(0, 1)])
        text = serialize_decomposition(D, n=1)
        assert "b 2\n" in text
        D2 = parse_decomposition(text, 1)
        assert D2.bags == (frozenset({1}), frozenset())

    def test_single_bag(self):
        D = parse_decomposition("s td 1 3 3\nb 1 1 2 3\n", 3)
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
        n = int(text.split()[4]) if text.startswith("s td") else 1  # the count the header declares
        with pytest.raises(FormatError, match=message):
            parse_decomposition(text, n)

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
            "    parse_decomposition('s td 1000000000000000 1 1\\nb 1 1\\n', 1)\n"
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
            parse_decomposition(text, 1)
        assert info.value.bare_message == message
        assert info.value.line == line

    def test_whole_file_errors_have_no_line(self):
        with pytest.raises(FormatError, match="cannot form a tree") as info:
            parse_decomposition("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n", 1)
        assert info.value.line is None

    @pytest.mark.parametrize("declared", [1, 4, 9])
    def test_header_must_declare_the_graphs_vertex_count(self, declared):
        # the header is checked before any bag, so a vertex above a low
        # count is reported as the count mismatch
        text = f"c six vertices\ns td 1 6 {declared}\nb 1 1 2 3 4 5 6\n"
        with pytest.raises(FormatError) as info:
            parse_decomposition(text, n=6)
        assert info.value.bare_message == f"header vertex count {declared} is not the graph's 6"
        assert info.value.line == 2
        assert parse_decomposition(text.replace(f" {declared}\n", " 6\n"), n=6).width == 5

    def test_random_round_trips(self):
        for seed in range(12):
            G = random_instance(7, 0.4, seed=seed)
            D = build_decomposition(G, "min-fill")
            D2 = parse_decomposition(serialize_decomposition(D, n=G.n), G.n)
            assert D2.width == D.width
            assert validate_decomposition(G, D2) == []
