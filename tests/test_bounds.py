from __future__ import annotations

import random
from fractions import Fraction
from math import floor

import pytest

import bruteforce
from test_dp_reference_loops import acceptance_case
from wicolor import bounds
from wicolor import (
    BoundReport,
    PreconditionError,
    TreeDecomposition,
    UndirectedWeightedGraph,
    WeightedDigraph,
    bound_report,
    build_decomposition,
    embed_undirected,
    exact_chi_w,
    greedy_recolor,
    greedy_recolor_trace,
    is_valid_coloring,
    lower_bound_chromatic,
    random_instance,
    random_subcubic_instance,
    subcubic_two_coloring,
    subcubic_two_coloring_trace,
    underlying_graph,
    upper_bound_degree_weight,
    upper_bound_indegree,
    upper_bound_sum_weights,
)

F = Fraction


class TestLowerBound:
    def test_golden(self, golden5):
        # chromatic 3 (triangle 1-2-3), smallest weight 3/10 tolerates 3
        assert lower_bound_chromatic(underlying_graph(golden5)) == 1

    def test_prism(self, prism):
        assert lower_bound_chromatic(prism) == 2

    def test_all_weight_one_cycle(self):
        c5 = UndirectedWeightedGraph(5, [(i, i % 5 + 1, F(1)) for i in range(1, 6)])
        assert lower_bound_chromatic(c5) == 3

    def test_no_positive_edges(self):
        assert lower_bound_chromatic(UndirectedWeightedGraph(3)) == 1
        zero = UndirectedWeightedGraph(3, [(1, 2, F(0))])
        assert lower_bound_chromatic(zero) == 1

    def test_above_the_guard_chi_is_taken_as_two(self):
        path = UndirectedWeightedGraph(21, [(i, i + 1, F(1)) for i in range(1, 21)])
        assert lower_bound_chromatic(path) == 2
        triangle = [(1, 2, F(1)), (2, 3, F(1)), (3, 1, F(1))]
        assert lower_bound_chromatic(UndirectedWeightedGraph(20, triangle)) == 3
        assert lower_bound_chromatic(UndirectedWeightedGraph(21, triangle)) == 2
        light = UndirectedWeightedGraph(21, [(1, 2, F(1, 2))])
        assert lower_bound_chromatic(light) == 1

    def test_is_actually_a_lower_bound(self):
        for seed in range(15):
            G = random_instance(7, 0.4, seed=900 + seed, bits=2)
            bound = lower_bound_chromatic(underlying_graph(G))
            assert bound <= exact_chi_w(embed_undirected(underlying_graph(G))).chromatic


class TestUpperDegreeWeight:
    def test_golden(self, golden5):
        assert upper_bound_degree_weight(golden5) == 3

    def test_prism(self, prism_digraph):
        assert upper_bound_degree_weight(prism_digraph) == 4

    def test_triangle_of_halves(self, triangle_half):
        assert upper_bound_degree_weight(triangle_half) == 2

    def test_light_star(self):
        G = WeightedDigraph(4, [(1, j, F(1, 4)) for j in (2, 3, 4)])
        assert upper_bound_degree_weight(G) == 2

    def test_no_positive_arcs(self):
        assert upper_bound_degree_weight(WeightedDigraph(3)) == 1
        zero = WeightedDigraph(3, [(1, 2, F(0))])
        assert upper_bound_degree_weight(zero) == 1


class TestUpperSumWeights:
    def test_golden(self, golden5):
        # total weight 48/10, so 2*floor(sqrt(96/10)) + 1
        assert upper_bound_sum_weights(golden5) == 7

    def test_zero_total(self):
        assert upper_bound_sum_weights(WeightedDigraph(4)) == 1

    def test_total_two(self):
        cycle = WeightedDigraph(
            4, [(1, 2, F(1, 2)), (2, 3, F(1, 2)), (3, 4, F(1, 2)), (4, 1, F(1, 2))]
        )
        assert upper_bound_sum_weights(cycle) == 5


def integer_total_graph(seed: int) -> WeightedDigraph:
    """A cycle whose last arc makes the total weight an integer, with
    denominators 2..50, so each vertex's term is inexact in binary."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    weights = [F(rng.randint(0, q), q) for q in (rng.randint(2, 50) for _ in range(n - 1))]
    weights.append(-sum(weights) % 1)
    return WeightedDigraph(n, [(v, v % n + 1, w) for v, w in enumerate(weights, start=1)])


def huge_denominator_path(digits: int, count: int, seed: int) -> WeightedDigraph:
    """A path whose arcs weigh 1/q for odd q of `digits` digits."""
    rng = random.Random(seed)
    qs = [rng.randrange(10 ** (digits - 1), 10**digits) | 1 for _ in range(count)]
    return WeightedDigraph(len(qs) + 1, [(v, v + 1, F(1, q)) for v, q in enumerate(qs, start=1)])


def sum_weight_cases():
    yield from (acceptance_case(i)[0] for i in range(200))
    for seed in range(200):
        yield random_instance(3 + seed % 10, 0.3, seed=3100 + seed, weight_model="uniform-rational")
    yield huge_denominator_path(300, 120, seed=44)  # the path of test_cli.py
    yield from (integer_total_graph(seed) for seed in range(100))
    q = random.Random(7).randrange(10**299, 10**300) | 1
    # 1/q + (q-1)/q into two vertices, and a half: 2W is 3 exactly
    yield WeightedDigraph(4, [(1, 2, F(1, q)), (2, 3, F(q - 1, q)), (3, 4, F(1, 2))])


class TestUpperSumWeightsAgainstTheExactSum:
    def test_matches_the_reference(self):
        integer_totals = 0
        for G in sum_weight_cases():
            exact = 2 * sum(w for _, _, w in G.arcs)
            assert bounds._floor_twice_total_weight(G) == floor(exact)
            assert upper_bound_sum_weights(G) == bruteforce.reference_upper_bound_sum_weights(G)
            integer_totals += exact.denominator == 1
        assert integer_totals >= 101

    def test_inexact_terms_with_an_integer_total(self):
        # thirds on two vertices: each term is inexact, 2W = 2 exactly
        G = WeightedDigraph(3, [(1, 2, F(1, 3)), (2, 3, F(2, 3))])
        assert bounds._floor_twice_total_weight(G) == 2
        assert upper_bound_sum_weights(G) == 3


class TestUpperIndegree:
    def test_golden(self, golden5):
        assert upper_bound_indegree(golden5) == 3

    def test_arcless(self):
        assert upper_bound_indegree(WeightedDigraph(3)) == 1

    def test_single_arc(self):
        assert upper_bound_indegree(WeightedDigraph(2, [(1, 2, F(1))])) == 3
        assert upper_bound_indegree(WeightedDigraph(2, [(1, 2, F(1, 2))])) == 2


class TestBoundReport:
    def test_golden_values(self, golden5):
        report = bound_report(golden5)
        assert report == BoundReport(
            lower_chromatic=1,
            upper_degree_weight=3,
            upper_sum_weights=7,
            upper_indegree=3,
            treewidth_cap=None,
        )

    def test_with_decomposition(self, golden5):
        D = build_decomposition(golden5, "exact-small")
        assert D.width == 2
        report = bound_report(golden5, D)
        assert report.treewidth_cap == 3

    def test_invalid_decomposition_refused(self, golden5):
        D = TreeDecomposition([set(golden5.vertices) - {5}])
        with pytest.raises(PreconditionError, match="decomposition invalid"):
            bound_report(golden5, D)

    def test_empty_graph_cap_is_one(self):
        D = TreeDecomposition([frozenset()])
        assert bound_report(WeightedDigraph(0), D).treewidth_cap == 1

    def test_as_lines(self, golden5):
        report = bound_report(golden5, build_decomposition(golden5, "exact-small"))
        assert report.as_lines() == [
            "lower_chromatic=1",
            "upper_degree_weight=3",
            "upper_sum_weights=7",
            "upper_indegree=3",
            "treewidth_cap=3",
        ]

    def test_as_lines_without_decomposition(self, golden5):
        assert all(
            not line.startswith("treewidth_cap")
            for line in bound_report(golden5).as_lines()
        )

    def test_sandwich_on_random_instances(self):
        for seed in range(20):
            G = random_instance(7, 0.4, seed=1000 + seed, bits=2)
            D = build_decomposition(G, "exact-small")
            report = bound_report(G, D)
            chi = exact_chi_w(G).chromatic
            assert report.lower_chromatic <= chi
            assert chi <= report.upper_degree_weight
            assert chi <= report.upper_sum_weights
            assert chi <= report.upper_indegree
            assert chi <= report.treewidth_cap


class TestGreedyRecolor:
    def test_prism_with_four_colors(self, prism_digraph):
        coloring, steps = greedy_recolor_trace(prism_digraph, 4)
        assert is_valid_coloring(prism_digraph, coloring)
        assert steps <= 15
        # weight-1 edges tolerate no same-colored neighbor at all
        und = underlying_graph(prism_digraph)
        for v in und.vertices:
            same = sum(1 for u, _ in und.adjacency[v] if coloring[u] == coloring[v])
            assert same == 0

    def test_golden_with_three_colors(self, golden5):
        coloring, steps = greedy_recolor_trace(golden5, 3)
        assert is_valid_coloring(golden5, coloring)
        assert steps <= 7

    def test_extra_colors_also_fine(self, golden5):
        assert is_valid_coloring(golden5, greedy_recolor(golden5, 5))

    def test_rejects_k_below_bound(self, golden5):
        with pytest.raises(PreconditionError):
            greedy_recolor(golden5, 2)

    def test_arcless_single_color(self):
        G = WeightedDigraph(4)
        coloring, steps = greedy_recolor_trace(G, 1)
        assert coloring == {v: 1 for v in range(1, 5)}
        assert steps == 0

    def test_zero_weights_single_color(self):
        G = WeightedDigraph(3, [(1, 2, F(0)), (2, 3, F(0))])
        coloring, steps = greedy_recolor_trace(G, 1)
        assert steps == 0
        assert is_valid_coloring(G, coloring)

    def test_each_vertex_within_tolerance(self):
        for seed in range(25):
            G = random_instance(9, 0.45, seed=1100 + seed, bits=2)
            k = upper_bound_degree_weight(G)
            coloring, steps = greedy_recolor_trace(G, k)
            und = underlying_graph(G)
            assert steps <= len(und.edges)
            assert is_valid_coloring(G, coloring)
            positive = [w for _, _, w in G.arcs if w > 0]
            if not positive:
                continue
            from wicolor import cap

            limit = cap(max(positive))
            for v in und.vertices:
                same = sum(
                    1 for u, _ in und.adjacency[v] if coloring[u] == coloring[v]
                )
                assert same <= limit


class TestSubcubicTwoColoring:
    def test_relaxed_prism(self, prism_relaxed):
        coloring, flips = subcubic_two_coloring_trace(prism_relaxed)
        assert flips <= 15
        assert set(coloring.values()) <= {1, 2}
        assert is_valid_coloring(embed_undirected(prism_relaxed), coloring)
        for v in prism_relaxed.vertices:
            same = sum(
                1
                for u, _ in prism_relaxed.adjacency[v]
                if coloring[u] == coloring[v]
            )
            assert same <= 1

    def test_even_cycle_needs_no_flip(self):
        c4 = UndirectedWeightedGraph(
            4, [(1, 2, F(1, 2)), (2, 3, F(1, 2)), (3, 4, F(1, 2)), (4, 1, F(1, 2))]
        )
        coloring, flips = subcubic_two_coloring_trace(c4)
        assert flips == 0
        assert coloring == {1: 1, 2: 2, 3: 1, 4: 2}

    def test_forced_flip(self):
        # 1 starts colored like both odd neighbors 3 and 5 and must flip
        H = UndirectedWeightedGraph(5, [(1, 3, F(9, 10)), (1, 5, F(9, 10))])
        coloring, flips = subcubic_two_coloring_trace(H)
        assert flips == 1
        assert coloring[1] == 2

    def test_rejects_weight_one_edge(self, prism):
        with pytest.raises(PreconditionError) as info:
            subcubic_two_coloring(prism)
        assert info.value.witness == (1, 2)

    def test_rejects_degree_above_three(self):
        star = UndirectedWeightedGraph(5, [(1, j, F(1, 2)) for j in (2, 3, 4, 5)])
        with pytest.raises(PreconditionError) as info:
            subcubic_two_coloring(star)
        assert info.value.witness == 1

    def test_random_subcubic_instances(self):
        for seed in range(25):
            H = random_subcubic_instance(10, seed=1200 + seed, weight_one_probability=0.0)
            coloring, flips = subcubic_two_coloring_trace(H)
            assert flips <= len(H.edges)
            assert is_valid_coloring(embed_undirected(H), coloring)
            for v in H.vertices:
                same = sum(
                    1 for u, _ in H.adjacency[v] if coloring[u] == coloring[v]
                )
                assert same <= 1

    def test_two_coloring_matches_brute_force_feasibility(self):
        # whenever the procedure runs, two colors must really suffice
        for seed in range(10):
            H = random_subcubic_instance(7, seed=1300 + seed, weight_one_probability=0.0)
            coloring = subcubic_two_coloring(H)
            k, _ = bruteforce.brute_chi_w(embed_undirected(H))
            assert k <= 2
            assert max(coloring.values(), default=1) <= 2
