from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import bruteforce
from wicolor import (
    PreconditionError,
    UndirectedWeightedGraph,
    WeightedDigraph,
    check_fixed_point,
    complete_embed,
    exact_chi_w,
    is_valid_coloring,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    reduce_defective,
    validate_decomposition,
)

F = Fraction


class TestReduceDefective:
    def test_single_edge(self):
        H = UndirectedWeightedGraph(2, [(1, 2, F(1))])
        R = reduce_defective(H, 1)
        assert R.arcs == ((1, 2, F(1, 2)), (2, 1, F(1, 2)))

    def test_edge_weights_of_h_are_ignored(self):
        light = UndirectedWeightedGraph(2, [(1, 2, F(1, 10))])
        heavy = UndirectedWeightedGraph(2, [(1, 2, F(1))])
        assert reduce_defective(light, 2) == reduce_defective(heavy, 2)

    def test_defect_zero_is_proper_coloring(self):
        k3 = UndirectedWeightedGraph(3, [(1, 2, F(1)), (2, 3, F(1)), (1, 3, F(1))])
        R = reduce_defective(k3, 0)
        assert all(w == 1 for _, _, w in R.arcs)
        assert exact_chi_w(R).chromatic == 3

    def test_high_defect_collapses_to_one_color(self):
        star = UndirectedWeightedGraph(4, [(1, j, F(1)) for j in (2, 3, 4)])
        assert exact_chi_w(reduce_defective(star, 3)).chromatic == 1

    def test_rejects_negative_defect(self):
        with pytest.raises(PreconditionError):
            reduce_defective(UndirectedWeightedGraph(1), -1)

    def test_reduction_preserves_the_defective_number(self):
        for seed in range(15):
            G = random_instance(5, 0.5, seed=2500 + seed)
            H = UndirectedWeightedGraph(5, [(t, h, w) for t, h, w in G.arcs if t < h])
            for d in (0, 1, 2):
                assert exact_chi_w(reduce_defective(H, d)).chromatic == (
                    bruteforce.brute_defective_number(H, d)
                )


class TestCompleteEmbed:
    def test_fills_every_ordered_pair(self):
        G = WeightedDigraph(3)
        full = complete_embed(G)
        assert len(full.arcs) == 6
        assert all(w == 0 for _, _, w in full.arcs)

    def test_keeps_existing_arcs(self, golden5):
        full = complete_embed(golden5)
        assert len(full.arcs) == 20
        for t, h, w in golden5.arcs:
            assert full.arc_weights[(t, h)] == w

    def test_idempotent(self, golden5):
        full = complete_embed(golden5)
        assert complete_embed(full) == full

    def test_chromatic_value_unchanged(self, golden5):
        assert exact_chi_w(complete_embed(golden5)) is not None
        assert (
            exact_chi_w(complete_embed(golden5)).chromatic
            == exact_chi_w(golden5).chromatic
        )

    def test_valid_colorings_coincide(self):
        G = random_instance(4, 0.5, seed=11, bits=2)
        full = complete_embed(G)
        from itertools import product

        for combo in product((1, 2), repeat=4):
            coloring = {v: combo[v - 1] for v in range(1, 5)}
            assert is_valid_coloring(G, coloring) == is_valid_coloring(full, coloring)


class TestPartitionInstance:
    @staticmethod
    def element_weights(elements):
        """Each element's weight, read from its four arcs to and from A and B."""
        G, _ = partition_instance(elements)
        weights = []
        for v in range(3, G.n + 1):
            (w,) = {G.arc_weights[pair] for pair in ((1, v), (v, 1), (v, 2), (2, v))}
            weights.append(w)
        return weights

    def test_weights_formula(self):
        # total 6, epsilon = 1/(2·3·6) = 1/36, epsilon/3 = 1/108
        assert self.element_weights([1, 2, 3]) == [
            F(2, 6) - F(1, 108),
            F(4, 6) - F(1, 108),
            F(6, 6) - F(1, 108),
        ]

    def test_oversized_element_clamps_to_one(self):
        assert self.element_weights([5, 1, 2])[0] == 1

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            partition_instance([])

    def test_rejects_nonpositive_elements(self):
        with pytest.raises(PreconditionError):
            partition_instance([1, 0])
        with pytest.raises(PreconditionError):
            partition_instance([1, -2])

    def test_rejects_bool_elements(self):
        with pytest.raises(PreconditionError, match="got True"):
            partition_instance([True, 2])

    def test_gadget_shape(self):
        G, D = partition_instance([1, 2, 3])
        assert G.n == 5
        assert len(G.arcs) == 2 * 7  # {A,B} plus two edges per element
        assert G.arc_weights[(1, 2)] == F(1)
        assert D.width == 2
        assert D.bags == (
            frozenset({1, 2, 3}),
            frozenset({1, 2, 4}),
            frozenset({1, 2, 5}),
        )
        assert D.root == 0
        assert validate_decomposition(G, D) == []

    def test_single_element(self):
        G, D = partition_instance([8])
        assert G.n == 3
        assert len(D.bags) == 1
        assert validate_decomposition(G, D) == []

    @pytest.mark.parametrize(
        "elements, expected",
        [
            ([1, 2, 3], 2),
            ([2, 2], 2),
            ([1, 1, 1], 3),
            ([5, 1, 2], 3),
            ([8], 3),
            ([3, 3, 3, 3], 2),
        ],
    )
    def test_two_colorable_iff_partitionable(self, elements, expected):
        G, _ = partition_instance(elements)
        assert exact_chi_w(G).chromatic == expected
        assert (expected == 2) == bruteforce.brute_partitionable(elements)

    def test_ab_edge_forces_two_colors(self):
        G, _ = partition_instance([1])
        result = exact_chi_w(G)
        assert result.witness[1] != result.witness[2]


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(8, 0.5, seed=99)
        b = random_instance(8, 0.5, seed=99)
        assert a == b

    def test_seed_changes_output(self):
        a = random_instance(8, 0.5, seed=1)
        b = random_instance(8, 0.5, seed=2)
        assert a != b

    def test_probability_zero_is_arcless(self):
        assert random_instance(6, 0.0, seed=5).arcs == ()

    def test_probability_one_is_complete(self):
        G = random_instance(5, 1.0, seed=5)
        assert len(G.arcs) == 20

    def test_dyadic_weights_match_declared_bits(self):
        for bits in (1, 2, 3):
            G = random_instance(8, 0.6, seed=7, bits=bits)
            assert check_fixed_point(G, bits) is None

    def test_uniform_rational_denominators(self):
        G = random_instance(8, 0.6, seed=8, weight_model="uniform-rational", max_denominator=7)
        assert G.arcs
        for _, _, w in G.arcs:
            assert w.denominator <= 7
            assert 0 <= w <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, arc_probability=0.5),
            dict(n=3, arc_probability=1.5),
            dict(n=3, arc_probability=0.5, weight_model="gaussian"),
            dict(n=3, arc_probability=0.5, bits=0),
            dict(
                n=3,
                arc_probability=0.5,
                weight_model="uniform-rational",
                max_denominator=0,
            ),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(PreconditionError):
            random_instance(seed=0, **kwargs)

    def test_seed_is_keyword_only(self):
        with pytest.raises(TypeError):
            random_instance(3, 0.5, 7)  # type: ignore[misc]


class TestRandomSubcubic:
    def test_deterministic(self):
        assert random_subcubic_instance(9, seed=3) == random_subcubic_instance(9, seed=3)

    def test_degree_bound(self):
        for seed in range(30):
            H = random_subcubic_instance(12, seed=seed)
            assert H.max_degree <= 3

    def test_at_most_one_heavy_edge_per_vertex(self):
        for seed in range(30):
            H = random_subcubic_instance(12, seed=seed, weight_one_probability=0.9)
            heavy_count = {v: 0 for v in H.vertices}
            for u, v, w in H.edges:
                if w == 1:
                    heavy_count[u] += 1
                    heavy_count[v] += 1
            assert all(c <= 1 for c in heavy_count.values())

    def test_weight_one_probability_zero(self):
        for seed in range(10):
            H = random_subcubic_instance(10, seed=seed, weight_one_probability=0.0)
            assert all(w < 1 for _, _, w in H.edges)
            assert all(w > 0 for _, _, w in H.edges)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            random_subcubic_instance(-1, seed=0)
        with pytest.raises(PreconditionError):
            random_subcubic_instance(5, seed=0, weight_one_probability=-0.1)


class TestPartitionSmallMultisets:
    def test_small_multisets(self):
        # every multiset from {1..5} of size at most 4
        for size in range(1, 5):
            for elements in combinations_with_replacement(range(1, 6), size):
                G, D = partition_instance(list(elements))
                two_colorable = exact_chi_w(G, k_limit=2) is not None
                assert two_colorable == bruteforce.brute_partitionable(elements)
                assert D.width == 2
                assert validate_decomposition(G, D) == []
