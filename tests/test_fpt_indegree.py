from __future__ import annotations

from fractions import Fraction

import pytest

from wicolor import (
    IndegreeSolver,
    PreconditionError,
    SolveResult,
    TreeDecomposition,
    WeightedDigraph,
    build_decomposition,
    exact_chi_w,
    is_valid_coloring,
    random_instance,
    solve_fpt_indegree,
)

F = Fraction


def solver_for(G, D=None, **kwargs) -> IndegreeSolver:
    if D is None:
        D = build_decomposition(G, "exact-small")
    return IndegreeSolver(G, D, **kwargs)


class TestSmallExamples:
    def test_isolated_vertex(self):
        G = WeightedDigraph(1)
        solver = solver_for(G, TreeDecomposition([{1}]))
        assert solver.decide(1)
        result = solver.solve()
        assert result == exact_chi_w(G)

    @pytest.mark.parametrize("strategy", ["min-degree", "min-fill", "exact-small"])
    def test_empty_graph_needs_one_color(self, strategy):
        G = WeightedDigraph(0)
        D = build_decomposition(G, strategy)
        assert D.width == -1
        assert IndegreeSolver(G, D).solve() == exact_chi_w(G) == SolveResult(1, {})

    def test_arcless_uses_one_color(self):
        G = WeightedDigraph(4)
        D = TreeDecomposition([{1}, {2}, {3}, {4}], [(0, 1), (1, 2), (2, 3)])
        result = IndegreeSolver(G, D).solve()
        assert result.chromatic == 1
        assert result.witness == {v: 1 for v in range(1, 5)}

    def test_heavy_two_cycle_needs_two(self):
        G = WeightedDigraph(2, [(1, 2, F(1)), (2, 1, F(1))])
        solver = solver_for(G, TreeDecomposition([{1, 2}]))
        assert not solver.decide(1)
        assert solver.decide(2)
        result = solver.solve()
        assert result.chromatic == 2
        assert result.witness[1] != result.witness[2]

    def test_light_path_single_color(self):
        G = WeightedDigraph(4, [(1, 2, F(1, 2)), (2, 3, F(1, 2)), (3, 4, F(1, 2))])
        D = TreeDecomposition([{1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2)])
        assert IndegreeSolver(G, D).solve().chromatic == 1

    def test_heavy_path_needs_two(self):
        G = WeightedDigraph(3, [(1, 2, F(1)), (2, 3, F(1))])
        D = TreeDecomposition([{1, 2}, {2, 3}], [(0, 1)])
        result = IndegreeSolver(G, D).solve()
        assert result.chromatic == 2

    def test_bidirected_k4_needs_four(self):
        arcs = [(a, b, F(1)) for a in range(1, 5) for b in range(1, 5) if a != b]
        G = WeightedDigraph(4, arcs)
        result = solver_for(G).solve()
        assert result.chromatic == 4
        assert sorted(result.witness.values()) == [1, 2, 3, 4]

    def test_zero_weight_arcs_do_not_force(self):
        arcs = [(a, b, F(0)) for a in range(1, 5) for b in range(1, 5) if a != b]
        G = WeightedDigraph(4, arcs)
        assert solver_for(G).solve().chromatic == 1

    def test_golden(self, golden5):
        result = solver_for(golden5).solve()
        assert result.chromatic == 2
        assert is_valid_coloring(golden5, result.witness)

    def test_prism(self, prism_digraph):
        result = solver_for(prism_digraph).solve()
        assert result.chromatic == 3
        assert is_valid_coloring(prism_digraph, result.witness)


class TestPreconditions:
    def test_invalid_decomposition_rejected(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        D = TreeDecomposition([{1, 2}])  # vertex 3 uncovered
        with pytest.raises(PreconditionError, match="decomposition invalid"):
            IndegreeSolver(G, D)

    def test_vertex_outside_the_graph_rejected(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        D = TreeDecomposition([{1, 2, 3, 5}])
        with pytest.raises(PreconditionError, match="outside 1..3"):
            IndegreeSolver(G, D)

    def test_partial_must_match_shared_set(self):
        G = WeightedDigraph(2, [(1, 2, F(1, 2))])
        solver = solver_for(G, TreeDecomposition([{1, 2}]))
        solver.decide(1)
        with pytest.raises(PreconditionError, match="shared set"):
            solver.bag_coloring(0, {1: 1})

    def test_infeasible_inherited_coloring_is_inf(self):
        # both in-neighbors of 3 share its color: indegree reaches 1
        G = WeightedDigraph(3, [(1, 3, F(1, 2)), (2, 3, F(1, 2))])
        D = TreeDecomposition([{1, 2, 3}, {3}], [(0, 1)])
        solver = IndegreeSolver(G, D)
        # V_child = {3} plus in-neighbors {1, 2}; child inherits all three
        assert solver.shared_set[1] == frozenset({1, 2, 3})
        solver.decide(2)
        assert solver.bag_coloring(1, {1: 1, 2: 1, 3: 1}) is None
        # feasible, and the inherited color 2 needs at least two colors
        assert solver.bag_coloring(1, {1: 1, 2: 2, 3: 1}) == {1: 1, 2: 2, 3: 1}
        solver.decide(1)
        with pytest.raises(PreconditionError, match="outside 1..1"):
            solver.bag_coloring(1, {1: 1, 2: 2, 3: 1})

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_state_colors_must_be_ints(self, bad):
        # a non-int color would be searched and stored as a new state
        G = random_instance(8, 0.4, seed=3, bits=2)
        solver = IndegreeSolver(G, build_decomposition(G, "min-fill"))
        solver.solve()
        state = {1: 1, 2: 2, 3: 2, 5: 1, 8: 1}
        assert solver.bag_coloring(1, state) == state
        entries = dict(solver.memo)
        with pytest.raises(PreconditionError, match="outside 1..2"):
            solver.bag_coloring(1, {v: bad if c == 1 else c for v, c in state.items()})
        assert solver.memo == entries


class TestAgainstOracle:
    def test_random_instances(self):
        for seed in range(40):
            G = random_instance(7, 0.45, seed=1400 + seed, bits=2)
            D = build_decomposition(G, "exact-small")
            result = IndegreeSolver(G, D).solve()
            assert result.chromatic == exact_chi_w(G).chromatic
            assert is_valid_coloring(G, result.witness)
            assert max(result.witness.values()) == result.chromatic
            assert result.chromatic <= D.width + 1

    def test_non_dyadic_weights_supported(self):
        for seed in range(15):
            G = random_instance(6, 0.5, seed=1500 + seed, weight_model="uniform-rational")
            result = solver_for(G).solve()
            assert result.chromatic == exact_chi_w(G).chromatic

    def test_heuristic_decompositions_give_same_value(self):
        for seed in range(10):
            G = random_instance(7, 0.4, seed=1600 + seed)
            expected = exact_chi_w(G).chromatic
            for strategy in ("min-degree", "min-fill"):
                D = build_decomposition(G, strategy)
                assert IndegreeSolver(G, D).solve().chromatic == expected

    @pytest.mark.parametrize(
        "p,seed,bits", [(0.4, 1, 2), (0.4, 3, 2), (0.5, 5, 1)], ids=["s1", "s3", "s5"]
    )
    def test_wide_dense_instances(self, p, seed, bits):
        # widths 5-7: every width+1 color count is in play
        G = random_instance(10, p, seed=seed, bits=bits)
        D = build_decomposition(G, "exact-small")
        assert 5 <= D.width <= 7
        result = IndegreeSolver(G, D).solve()
        assert result.chromatic == exact_chi_w(G).chromatic
        assert is_valid_coloring(G, result.witness)

    def test_root_choice_does_not_matter(self):
        G = random_instance(6, 0.5, seed=42, bits=2)
        D = build_decomposition(G, "exact-small")
        values = {
            IndegreeSolver(G, D.root_at(i)).solve().chromatic
            for i in range(len(D.bags))
        }
        assert values == {exact_chi_w(G).chromatic}


class TestMemoization:
    def test_repeat_query_hits_the_table(self, prism_digraph):
        solver = solver_for(prism_digraph)
        solver.decide(3)
        before = solver.memo_stats()
        solver.bag_coloring(solver.decomposition.root, {})
        after = solver.memo_stats()
        assert after.entries == before.entries
        assert after.hits == before.hits + 1

    def test_stats_are_deterministic(self, prism_digraph):
        first = solver_for(prism_digraph)
        first.solve()
        second = solver_for(prism_digraph)
        second.solve()
        assert first.memo_stats() == second.memo_stats()

    def test_entries_bounded_by_shared_state_space(self):
        for seed in range(15):
            G = random_instance(8, 0.4, seed=1800 + seed, bits=2)
            D = build_decomposition(G, "exact-small")
            solver = IndegreeSolver(G, D)
            solver.solve()
            stats = solver.memo_stats()
            palette = D.width + 1
            analytic = sum(
                palette ** len(shared) for shared in solver.shared_set
            )
            assert stats.entries <= analytic
            assert stats.max_key_width <= max(
                len(shared) for shared in solver.shared_set
            )
