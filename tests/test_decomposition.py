from __future__ import annotations

import random
from fractions import Fraction

import pytest

import bruteforce
from wicolor import (
    DecompositionViolation,
    DuplicateEdgeError,
    InstanceTooLargeError,
    TreeDecomposition,
    UndirectedWeightedGraph,
    WeightedDigraph,
    build_decomposition,
    embed_undirected,
    extended_bags,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    validate_decomposition,
)
from wicolor import decomposition

F = Fraction

STRATEGIES = ("min-degree", "min-fill", "exact-small")


def path4() -> WeightedDigraph:
    return WeightedDigraph(4, [(1, 2, F(1, 2)), (2, 3, F(1, 2)), (3, 4, F(1, 2))])


def path4_decomposition() -> TreeDecomposition:
    return TreeDecomposition([{1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2)])


def k4_digraph() -> WeightedDigraph:
    arcs = [(a, b, F(1)) for a in range(1, 5) for b in range(1, 5) if a != b]
    return WeightedDigraph(4, arcs)


def undirected(n: int, pairs) -> UndirectedWeightedGraph:
    return UndirectedWeightedGraph(n, [(a, b, F(1, 2)) for a, b in pairs])


def complete(n: int) -> UndirectedWeightedGraph:
    return undirected(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def cycle(n: int) -> UndirectedWeightedGraph:
    return undirected(n, [(i, i % n + 1) for i in range(1, n + 1)])


def grid3x3() -> UndirectedWeightedGraph:
    cell = {(r, c): 3 * r + c + 1 for r in range(3) for c in range(3)}
    pairs = [(cell[r, c], cell[r, c + 1]) for r in range(3) for c in range(2)]
    pairs += [(cell[r, c], cell[r + 1, c]) for r in range(2) for c in range(3)]
    return undirected(9, pairs)


def petersen() -> UndirectedWeightedGraph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return undirected(10, outer + spokes + inner)


def ladder(k: int) -> UndirectedWeightedGraph:
    """The 2 x k grid; column j holds vertices 2j+1 and 2j+2."""
    pairs = [(2 * j + 1, 2 * j + 2) for j in range(k)]
    pairs += [(v, v + 2) for v in range(1, 2 * k - 1)]
    return undirected(2 * k, pairs)


def reference_decomposition(graph) -> TreeDecomposition:
    """The compacted decomposition built from the min-max subset DP's order."""
    adj = bruteforce._adjacency(graph)
    return bruteforce.reference_compact(
        bruteforce.reference_decomposition_from_order(
            graph.n, adj, bruteforce.reference_exact_order(adj)
        )
    )


def uncompacted_decomposition(graph, strategy: str) -> TreeDecomposition:
    """One bag per vertex: the reference decomposition of `strategy`'s
    order before compaction."""
    adj = bruteforce._adjacency(graph)
    if strategy == "exact-small":
        order = bruteforce.reference_search_order(adj)
    else:
        order = bruteforce.reference_greedy_order(adj, strategy)
    return bruteforce.reference_decomposition_from_order(graph.n, adj, order)


class TestConstructor:
    def test_tree_shape(self):
        D = TreeDecomposition([{1, 2}, {2, 3}, {3}], [(1, 0), (1, 2)])
        assert D.tree_edges == ((0, 1), (1, 2))
        assert D.parent == (None, 0, 1)
        assert D.children == ((1,), (2,), ())
        assert D.preorder == (0, 1, 2)

    def test_single_bag(self):
        D = TreeDecomposition([{1, 2, 3}])
        assert D.width == 2
        assert D.parent == (None,)

    def test_width_of_empty_bag(self):
        assert TreeDecomposition([frozenset()]).width == -1

    @pytest.mark.parametrize(
        "bags, edges, root, message",
        [
            ([], [], 0, "at least one bag"),
            ([{1}, {2}], [(0, 2)], 0, "missing bag"),
            ([{1}, {2}], [(0, 0)], 0, "self-loop"),
            ([{1}, {2}], [(0, 1), (1, 0)], 0, "duplicate"),
            ([{1}, {2}], [], 0, "cannot form a tree"),
            ([{1}, {2}, {3}], [(0, 1), (1, 2), (0, 2)], 0, "cannot form a tree"),
            ([{1}, {2}, {3}, {4}], [(0, 1), (1, 2), (0, 2)], 0, "connect"),
            ([{1}, {2}], [(0, 1)], 5, "out of range"),
            # vertices, counts and weights refuse bools too; True is not bag 1
            ([{1}, {2}], [(0, 1)], True, "^root index True out of range$"),
        ],
    )
    def test_rejects_bad_shapes(self, bags, edges, root, message):
        with pytest.raises(ValueError, match=message):
            TreeDecomposition(bags, edges, root)

    def test_duplicate_edge_names_its_index(self):
        with pytest.raises(DuplicateEdgeError, match=r"duplicate tree edge \(1, 2\)") as info:
            TreeDecomposition([{1}, {2}, {3}], [(1, 2), (0, 1), (2, 1)])
        assert info.value.index == 2

    @pytest.mark.parametrize(
        "bags, edges, message",
        [
            # stored, a str would crash the violation sort against the ints
            ([{1, 2, "a", 9}], [], "^bag vertex must be an int, got 'a'$"),
            # a witness naming vertex 2.0 would serialize to a line no parser
            # reads; checked as given, before a frozenset merges 2.0 into 2
            ([{1, 2.0}], [], "^bag vertex must be an int, got 2.0$"),
            ([[1, 2, 2.0]], [], "^bag vertex must be an int, got 2.0$"),
            ([{1}, {2}], [(True, 0)], "^tree edge endpoint must be an int, got True$"),
        ],
    )
    def test_rejects_non_int_vertices(self, bags, edges, message):
        with pytest.raises(TypeError, match=message):
            TreeDecomposition(bags, edges)

    def test_root_at(self):
        D = path4_decomposition()
        D2 = D.root_at(2)
        assert D2.bags == D.bags
        assert D2.tree_edges == D.tree_edges
        assert D2.width == D.width == 1
        assert D2.root == 2
        assert D2.parent == (1, 2, None)
        assert D2.preorder[0] == 2
        with pytest.raises(ValueError):
            D.root_at(3)

    def test_children_are_ascending(self):
        D = TreeDecomposition([{1}, {2}, {3}, {4}], [(0, 3), (0, 1), (0, 2)])
        assert D.children[0] == (1, 2, 3)


class TestValidate:
    def test_single_bag_covers_everything(self, golden5):
        D = TreeDecomposition([set(golden5.vertices)])
        assert validate_decomposition(golden5, D) == []

    def test_built_decompositions_are_valid(self, golden5, prism_digraph):
        for G in (golden5, prism_digraph):
            for strategy in STRATEGIES:
                assert validate_decomposition(G, build_decomposition(G, strategy)) == []

    def test_uncovered_vertex(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2))])
        D = TreeDecomposition([{1, 2}])
        assert validate_decomposition(G, D) == [
            DecompositionViolation(1, 3, "vertex 3 appears in no bag")
        ]

    def test_arc_never_shares_a_bag(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (3, 1, F(1, 2))])
        D = TreeDecomposition([{1, 2}, {3}], [(0, 1)])
        violations = validate_decomposition(G, D)
        assert [v.property_index for v in violations] == [2]
        assert violations[0].witness == (1, 3)

    def test_zero_weight_arcs_need_coverage_too(self):
        G = WeightedDigraph(2, [(1, 2, F(0))])
        D = TreeDecomposition([{1}, {2}], [(0, 1)])
        assert [v.property_index for v in validate_decomposition(G, D)] == [2]

    def test_disconnected_holders(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        D = TreeDecomposition([{1, 2}, {2}, {2, 3}], [(0, 1), (1, 2)])
        assert validate_decomposition(G, D) == []
        broken = TreeDecomposition([{1, 2}, {3}, {2, 3}], [(0, 1), (1, 2)])
        violations = validate_decomposition(G, broken)
        assert DecompositionViolation(
            3, 2, "bags containing vertex 2 are disconnected in the tree"
        ) in violations

    def test_one_flaw_can_break_two_properties(self):
        G, D = partition_instance([1, 2, 3])
        assert validate_decomposition(G, D) == []
        bags = [set(b) for b in D.bags]
        bags[1].discard(1)
        broken = TreeDecomposition(bags, D.tree_edges, D.root)
        violations = validate_decomposition(G, broken)
        assert {(v.property_index, v.witness) for v in violations} == {
            (2, (1, 4)),
            (3, 1),
        }

    def test_vertex_outside_the_graph(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        D = TreeDecomposition([{0, 1, 2, 3, 5}, {5}], [(0, 1)])
        assert validate_decomposition(G, D) == [
            DecompositionViolation(0, 0, "vertex 0 in a bag is outside 1..3"),
            DecompositionViolation(0, 5, "vertex 5 in a bag is outside 1..3"),
        ]

    def test_report_order_is_deterministic(self):
        G = WeightedDigraph(4, [(1, 2, F(1, 2)), (3, 4, F(1, 2))])
        D = TreeDecomposition([{2}, {4}], [(0, 1)])
        violations = validate_decomposition(G, D)
        assert [(v.property_index, v.witness) for v in violations] == [
            (1, 1),
            (1, 3),
            (2, (1, 2)),
            (2, (3, 4)),
        ]


class TestBuild:
    def test_path_has_width_one(self):
        for strategy in STRATEGIES:
            assert build_decomposition(path4(), strategy).width == 1

    def test_k4_has_width_three(self):
        assert build_decomposition(k4_digraph(), "exact-small").width == 3

    def test_prism_has_width_four(self, prism, prism_digraph):
        # cross-checked below against the exhaustive elimination search
        assert build_decomposition(prism, "exact-small").width == 4
        assert build_decomposition(prism_digraph, "exact-small").width == 4

    def test_prism_width_matches_exhaustive_search(self, prism):
        assert bruteforce.elimination_order_within(prism, 3) is None
        assert bruteforce.elimination_order_within(prism, 4) is not None
        assert bruteforce.treewidth_by_elimination(prism) == 4

    def test_exhaustive_search_self_check(self):
        c5 = UndirectedWeightedGraph(5, [(i, i % 5 + 1, F(1)) for i in range(1, 6)])
        assert bruteforce.treewidth_by_elimination(c5) == 2
        k4 = UndirectedWeightedGraph(
            4, [(a, b, F(1)) for a in range(1, 5) for b in range(a + 1, 5)]
        )
        assert bruteforce.treewidth_by_elimination(k4) == 3
        cube = UndirectedWeightedGraph(
            8,
            [
                (1, 2, F(1)), (2, 3, F(1)), (3, 4, F(1)), (4, 1, F(1)),
                (5, 6, F(1)), (6, 7, F(1)), (7, 8, F(1)), (8, 5, F(1)),
                (1, 5, F(1)), (2, 6, F(1)), (3, 7, F(1)), (4, 8, F(1)),
            ],
        )
        assert bruteforce.treewidth_by_elimination(cube) == 3

    def test_exact_matches_exhaustive_on_random_instances(self):
        for seed in range(25):
            G = random_instance(7, 0.35, seed=seed)
            D = build_decomposition(G, "exact-small")
            assert D.width == bruteforce.treewidth_by_elimination(G)

    def test_heuristics_never_beat_exact(self):
        for seed in range(25):
            G = random_instance(8, 0.3, seed=100 + seed)
            exact = build_decomposition(G, "exact-small").width
            for strategy in ("min-degree", "min-fill"):
                assert build_decomposition(G, strategy).width >= exact

    def test_all_strategies_yield_valid_decompositions(self):
        for seed in range(15):
            G = random_instance(9, 0.3, seed=200 + seed)
            for strategy in STRATEGIES:
                D = build_decomposition(G, strategy)
                assert validate_decomposition(G, D) == []
                full = uncompacted_decomposition(G, strategy)
                assert len(full.bags) == G.n
                assert len(D.bags) == len(bruteforce.reference_compact(full).bags)
                assert D.root == 0

    def test_deterministic(self):
        G = random_instance(8, 0.4, seed=7)
        assert build_decomposition(G, "min-fill") == build_decomposition(G, "min-fill")

    def test_disconnected_graph(self):
        G = WeightedDigraph(5, [(1, 2, F(1, 2)), (4, 5, F(1, 2))])
        for strategy in STRATEGIES:
            D = build_decomposition(G, strategy)
            assert validate_decomposition(G, D) == []
            assert D.width == 1

    def test_empty_graph(self):
        D = build_decomposition(WeightedDigraph(0), "exact-small")
        assert D.bags == (frozenset(),)

    def test_exact_small_guard(self):
        G = WeightedDigraph(21)
        with pytest.raises(InstanceTooLargeError) as info:
            build_decomposition(G, "exact-small")
        assert str(info.value) == "exact-small is limited to 20 vertices, got 21"
        assert info.value.size == 21
        assert info.value.limit == 20

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_decomposition(path4(), "metis")

    def test_strategy_names(self):
        assert decomposition.STRATEGIES == STRATEGIES


class TestExactSmallReference:
    """`exact-small` keeps the orders of the min-max subset DP it replaced."""

    def test_random_instances(self):
        for seed in range(60):
            G = random_instance(8 + seed % 7, (0.2, 0.3, 0.4, 0.5)[seed % 4], seed=seed)
            assert build_decomposition(G, "exact-small") == reference_decomposition(G)

    @pytest.mark.parametrize("n", range(8, 17))
    def test_subcubic_instances(self, n):
        for seed in range(5):
            H = random_subcubic_instance(n, seed=seed)
            assert build_decomposition(H, "exact-small") == reference_decomposition(H)

    def test_eighteen_vertex_subcubic_instance(self):
        H = random_subcubic_instance(18, seed=0)
        assert build_decomposition(H, "exact-small") == reference_decomposition(H)

    @pytest.mark.parametrize(
        "graph, width",
        [pytest.param(complete(n), n - 1, id=f"K{n}") for n in range(1, 7)]
        + [pytest.param(cycle(n), 2, id=f"C{n}") for n in range(3, 10)]
        + [
            pytest.param(
                undirected(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]), 3, id="K33"
            ),
            pytest.param(grid3x3(), 3, id="grid3x3"),
            pytest.param(petersen(), 4, id="petersen"),
        ],
    )
    def test_known_treewidths(self, graph, width):
        assert bruteforce.treewidth_by_elimination(graph) == width
        D = build_decomposition(graph, "exact-small")
        assert D.width == width
        assert validate_decomposition(embed_undirected(graph), D) == []
        assert D == reference_decomposition(graph)


def search_reference_decomposition(graph) -> TreeDecomposition:
    """The compacted decomposition built from the previous decision search's order."""
    adj = bruteforce._adjacency(graph)
    return bruteforce.reference_compact(
        bruteforce.reference_decomposition_from_order(
            graph.n, adj, bruteforce.reference_search_order(adj)
        )
    )


def octahedron() -> UndirectedWeightedGraph:
    return undirected(6, [(a, b) for a in range(1, 7) for b in range(a + 1, 7) if b != a + 3])


def pentagonal_prism() -> UndirectedWeightedGraph:
    pairs = [(i, i % 5 + 1) for i in range(1, 6)] + [(i + 5, i % 5 + 6) for i in range(1, 6)]
    return undirected(10, pairs + [(i, i + 5) for i in range(1, 6)])


def wagner() -> UndirectedWeightedGraph:
    return undirected(8, [(i, i % 8 + 1) for i in range(1, 9)] + [(i, i + 4) for i in range(1, 5)])


def grid4x4() -> UndirectedWeightedGraph:
    pairs = [(4 * r + c + 1, 4 * r + c + 2) for r in range(4) for c in range(3)]
    pairs += [(4 * r + c + 1, 4 * r + c + 5) for r in range(3) for c in range(4)]
    return undirected(16, pairs)


def tree(n: int) -> UndirectedWeightedGraph:
    return undirected(n, [(v, (v - 2) // 3 + 1) for v in range(2, n + 1)])


class TestExactSmallSearchReference:
    """`exact-small` keeps the orders of the decision search that preceded
    its elimination-graph masks and forced eliminations."""

    def test_random_instances(self):
        for seed in range(504):
            model = ("dyadic", "uniform-rational")[seed // 126 % 2]
            n = 1 + seed % 14
            p = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)[seed % 9]
            G = random_instance(n, p, seed=seed, weight_model=model)
            assert build_decomposition(G, "exact-small") == search_reference_decomposition(G)

    @pytest.mark.parametrize(
        "n, seeds",
        [(n, range(4)) for n in range(1, 18)] + [(18, (1, 3)), (19, (1,)), (20, (2, 3))],
    )
    def test_subcubic_instances(self, n, seeds):
        for seed in seeds:
            H = random_subcubic_instance(n, seed=seed)
            assert build_decomposition(H, "exact-small") == search_reference_decomposition(H)

    @pytest.mark.parametrize(
        "graph, width",
        [
            pytest.param(complete(5), 4, id="K5"),
            pytest.param(octahedron(), 4, id="octahedron"),
            pytest.param(pentagonal_prism(), 4, id="pentagonal-prism"),
            pytest.param(wagner(), 4, id="wagner"),
            pytest.param(petersen(), 4, id="petersen"),
            pytest.param(grid4x4(), 4, id="grid4x4"),
            pytest.param(grid3x3(), 3, id="grid3x3"),
        ]
        + [pytest.param(cycle(n), 2, id=f"C{n}") for n in (3, 4, 7, 12, 20)]
        + [pytest.param(tree(n), 1, id=f"tree{n}") for n in (2, 9, 20)],
    )
    def test_known_treewidths(self, graph, width):
        D = build_decomposition(graph, "exact-small")
        assert D.width == width
        assert validate_decomposition(embed_undirected(graph), D) == []
        assert D == search_reference_decomposition(graph)


def greedy_cases():
    for seed in range(300):
        n = 1 + seed % 40
        p = (0.05, 0.1, 0.2, 0.35, 0.5, 0.8)[seed % 6]
        yield random_instance(n, p, seed=seed)
    for k in (1, 2, 5, 16, 33):
        yield ladder(k)
    for n in (8, 13, 18, 24, 40):
        yield random_subcubic_instance(n, seed=n)
    for elements in ([3, 1, 1, 2, 2, 1], [5, 9, 4, 11, 19, 6, 1, 14]):
        yield partition_instance(elements)[0]
    yield undirected(9, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 5), (8, 9)])
    yield WeightedDigraph(6)
    yield WeightedDigraph(0)


def weighted_ladder(k: int, bits: int, seed: int) -> WeightedDigraph:
    """The 2 x k ladder with seeded weights of `bits` bits on both arc directions."""
    rng = random.Random(seed)
    arcs = []
    for j in range(k):
        top, bottom = 2 * j + 1, 2 * j + 2
        pairs = [(top, bottom)] + ([(top, top + 2), (bottom, bottom + 2)] if j + 1 < k else [])
        for u, v in pairs:
            arcs += [(a, b, F(rng.randint(1, 1 << bits), 1 << bits)) for a, b in ((u, v), (v, u))]
    return WeightedDigraph(2 * k, arcs)


def benchmark_cases():
    """The graphs the benchmark's library jobs decompose: the 200
    acceptance-sweep graphs and the 50 subcubic graphs (`exact-small`),
    and the 13 dyadic ladders (`min-fill`)."""
    for i in range(200):
        n = 2 + i % 11
        bits = 1 + i % 3 if n <= 6 else 1 + i % 2
        p = min(1.0, 2.5 / n) if n <= 6 else 1.25 / n
        yield random_instance(n, p, seed=1000 + i, weight_model="dyadic", bits=bits)
    for n in range(8, 13):
        for seed in range(10):
            yield random_subcubic_instance(n, seed=seed)
    for k in (8, 16, 32, 64):
        for bits in (1, 2, 3):
            yield weighted_ladder(k, bits, seed=10 * k + bits)
    yield weighted_ladder(128, 1, seed=10 * 128 + 1)


def counting(monkeypatch, name: str) -> list[int]:
    """Count the calls of the score function `decomposition.<name>`."""
    calls = [0]
    score = getattr(decomposition, name)

    def counted(adj, v):
        calls[0] += 1
        return score(adj, v)

    monkeypatch.setattr(decomposition, name, counted)
    return calls


class TestGreedyReference:
    """Each build equals the compacted decomposition that eliminating the
    reference order a second time gives, for the full-rescan greedy
    orders and the `exact-small` orders alike."""

    @pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
    def test_orders_and_decompositions(self, strategy):
        for graph in [*greedy_cases(), *benchmark_cases()]:
            adj = bruteforce._adjacency(graph)
            expected = bruteforce.reference_greedy_order(adj, strategy)
            eliminations = decomposition._order_greedy(
                bruteforce._adjacency(graph), strategy == "min-fill"
            )
            assert [v for v, _ in eliminations] == expected
            reference = bruteforce.reference_decomposition_from_order(graph.n, adj, expected)
            assert build_decomposition(graph, strategy) == bruteforce.reference_compact(reference)

    def test_exact_small_decompositions(self):
        for graph in greedy_cases():
            if graph.n <= 14:
                assert build_decomposition(graph, "exact-small") == reference_decomposition(graph)

    def test_exact_small_benchmark_decompositions(self):
        for graph in benchmark_cases():
            if graph.n <= decomposition.EXACT_SMALL_LIMIT:
                assert build_decomposition(graph, "exact-small") == search_reference_decomposition(graph)

    @pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
    def test_orders_on_chordal_and_dense_graphs(self, strategy):
        for graph in [*chordal_cases(), *(random_instance(40, 0.3, seed=s) for s in range(4))]:
            adj = bruteforce._adjacency(graph)
            eliminations = decomposition._order_greedy(
                bruteforce._adjacency(graph), strategy == "min-fill"
            )
            assert [v for v, _ in eliminations] == bruteforce.reference_greedy_order(adj, strategy)

    def test_min_fill_recounts_no_fill_on_chordal_graphs(self, monkeypatch):
        # every step eliminates a simplicial vertex, which only lowers its
        # neighbors' counts; the ladders below show the counter counts.
        # exact-small peels by the same steps, so it builds the same
        # decomposition wherever it runs
        calls = counting(monkeypatch, "_fill_count")
        small = 0
        for graph in chordal_cases():
            D = build_decomposition(graph, "min-fill")
            if graph.n <= decomposition.EXACT_SMALL_LIMIT:
                assert build_decomposition(graph, "exact-small") == D
                small += 1
        assert calls[0] == 0
        assert small == 12

    @pytest.mark.parametrize("k", [100, 400, 800])
    def test_min_fill_work_is_linear_on_ladders(self, k, monkeypatch):
        calls = counting(monkeypatch, "_fill_count")
        D = build_decomposition(ladder(k), "min-fill")
        # the first scores come from one triangle count per edge, and
        # the steps alternate: eliminating a corner adds one fill edge
        # and rescores its two neighbors, which leaves a simplicial
        # vertex whose step recounts nothing; so n - 2 fill counts, where
        # rescoring every neighbor made 3n - 3 and a full rescan n(n+1)/2
        assert calls[0] == 2 * k - 2
        assert D.width == 2

    @pytest.mark.parametrize("k", [100, 400, 800])
    def test_min_degree_work_is_linear_on_ladders(self, k, monkeypatch):
        calls = counting(monkeypatch, "_degree")
        D = build_decomposition(ladder(k), "min-degree")
        assert calls[0] <= 3 * 2 * k
        assert D.width == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_simplicial_peel_work_is_linear(self, seed, monkeypatch):
        # a path whose two leaves carry the largest labels: a rescan of
        # every vertex per peeled vertex makes about n^2 / 4 evaluations
        n = 20
        inner = list(range(1, n - 1))
        random.Random(seed).shuffle(inner)
        order = [n - 1, *inner, n]
        calls = counting(monkeypatch, "_fill_count")
        D = build_decomposition(undirected(n, list(zip(order, order[1:]))), "exact-small")
        # the first counts come from one triangle count per edge, and
        # each peeled vertex lowers its neighbors' counts without a recount
        assert calls[0] == 0
        assert D.width == 1


def tree_neighbors_nested(D: TreeDecomposition) -> list[tuple[int, int]]:
    """The tree edges whose one bag lies inside the other."""
    return [(a, b) for a, b in D.tree_edges if D.bags[a] <= D.bags[b] or D.bags[b] <= D.bags[a]]


def relabeled(n: int, pairs, seed: int) -> UndirectedWeightedGraph:
    """The graph on `pairs` over 1..n with its vertices renamed at random,
    so that no strategy meets the vertices in construction order."""
    name = list(range(1, n + 1))
    random.Random(seed).shuffle(name)
    return undirected(n, [(name[a - 1], name[b - 1]) for a, b in pairs])


def random_tree(n: int, seed: int) -> UndirectedWeightedGraph:
    rng = random.Random(seed)
    return relabeled(n, [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)], seed)


def random_k_tree(n: int, k: int, seed: int) -> UndirectedWeightedGraph:
    """A k-clique grown by vertices that each join all of a k-clique of the
    graph so far (one of the (k+1)-cliques made, less one vertex)."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    cliques = [tuple(range(1, k + 1))]
    for v in range(k + 1, n + 1):
        base = list(rng.choice(cliques))
        if len(base) > k:
            base.pop(rng.randrange(len(base)))
        pairs += [(u, v) for u in base]
        cliques.append((*base, v))
    return relabeled(n, pairs, seed)


def random_interval_graph(n: int, seed: int) -> UndirectedWeightedGraph:
    """Vertices are random closed intervals; overlapping ones are adjacent."""
    rng = random.Random(seed)
    spans = []
    for _ in range(n):
        start = rng.randint(0, 3 * n)
        spans.append((start, start + rng.randint(0, n)))
    pairs = [
        (a + 1, b + 1)
        for a in range(n)
        for b in range(a + 1, n)
        if spans[a][0] <= spans[b][1] and spans[b][0] <= spans[a][1]
    ]
    return relabeled(n, pairs, seed)


def chordal_cases():
    """Relabelled chordal graphs: random interval graphs and k-trees."""
    for seed in range(4):
        for n in (12, 30, 60):
            yield random_interval_graph(n, seed)
        for k in (1, 2, 3, 5):
            yield random_k_tree(10 + 9 * seed, k, seed)


class TestCompaction:
    """Builds drop every bag that lies inside a tree neighbor's bag."""

    def test_reference_compact_contracts_nested_bags(self):
        path = TreeDecomposition([{1, 2}, {2}, {2, 3}], [(0, 1), (1, 2)])
        assert bruteforce.reference_compact(path) == TreeDecomposition(
            [{1, 2}, {2, 3}], [(0, 1)]
        )
        # an absorbed root hands the root to the bag that took it in
        chain = TreeDecomposition([{1}, {1, 2}, {1, 2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
        assert bruteforce.reference_compact(chain) == TreeDecomposition(
            [{1, 2, 3}, {3, 4}], [(0, 1)]
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_valid_same_width_and_no_nested_neighbors(self, strategy):
        for graph in [*greedy_cases(), *benchmark_cases()]:
            if strategy == "exact-small" and graph.n > 14:
                continue
            # the reference comparisons above pin the bags; this checks
            # what compaction promises, against the order's own width
            adj = bruteforce._adjacency(graph)
            if strategy == "exact-small":
                eliminations = decomposition._order_exact(adj)
            else:
                eliminations = decomposition._order_greedy(adj, strategy == "min-fill")
            D = build_decomposition(graph, strategy)
            G = graph if isinstance(graph, WeightedDigraph) else embed_undirected(graph)
            assert validate_decomposition(G, D) == []
            assert D.width == max((len(nbrs) for _, nbrs in eliminations), default=-1)
            assert tree_neighbors_nested(D) == []

    def test_benchmark_families_lose_a_third_of_their_bags(self):
        bags = {"sweep": 0, "subcubic": 0, "ladder": 0}
        for i, graph in enumerate(benchmark_cases()):
            family = "sweep" if i < 200 else "subcubic" if i < 250 else "ladder"
            strategy = "min-fill" if family == "ladder" else "exact-small"
            bags[family] += len(build_decomposition(graph, strategy).bags)
        # one bag per vertex before compaction: 1391, 500 and 1090
        assert bags == {"sweep": 935, "subcubic": 338, "ladder": 950}

    @pytest.mark.parametrize(
        "graph",
        [pytest.param(random_tree(n, seed=n), id=f"tree{n}") for n in (1, 2, 5, 9, 13)]
        + [
            pytest.param(random_k_tree(n, k, seed=10 * n + k), id=f"{k}-tree{n}")
            for n, k in ((6, 2), (9, 2), (12, 2), (8, 3), (11, 3), (10, 4), (12, 5))
        ]
        + [pytest.param(random_interval_graph(n, seed=n), id=f"interval{n}") for n in (4, 8, 11, 14)]
        + [pytest.param(random_interval_graph(12, seed=s), id=f"interval12-s{s}") for s in range(5)],
    )
    def test_chordal_min_fill_bags_are_the_maximal_cliques(self, graph):
        # a chordal graph always has a simplicial vertex, so min-fill
        # follows a perfect elimination order, and its compacted bags are
        # the maximal cliques: one bag per clique-tree node
        D = build_decomposition(graph, "min-fill")
        cliques = bruteforce.reference_maximal_cliques(graph)
        assert len(D.bags) == len(cliques)
        assert set(D.bags) == cliques


class TestStructuralQueries:
    def test_extended_bags_on_path(self):
        G, D = path4(), path4_decomposition()
        assert extended_bags(D, G) == (
            frozenset({1, 2}),
            frozenset({1, 2, 3}),
            frozenset({2, 3, 4}),
        )

    def test_extended_bags_include_zero_weight_tails(self):
        G = WeightedDigraph(3, [(1, 2, F(0)), (3, 2, F(1, 2))])
        D = TreeDecomposition([{2}])
        assert extended_bags(D, G) == (frozenset({1, 2, 3}),)

    def test_extended_holders_form_subtrees_when_valid(self):
        # the indegree DP joins its witness from per-bag colorings of V_i,
        # which needs the extended bags to form a valid decomposition too
        for seed in range(10):
            G = random_instance(8, 0.35, seed=300 + seed)
            D = build_decomposition(G, "min-fill")
            extended = TreeDecomposition(extended_bags(D, G), D.tree_edges, D.root)
            assert validate_decomposition(G, extended) == []
