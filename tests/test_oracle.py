from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import bruteforce
from wicolor import (
    InstanceTooLargeError,
    PreconditionError,
    UndirectedWeightedGraph,
    WeightedDigraph,
    embed_undirected,
    exact_chi_w,
    exact_chromatic_underlying,
    exact_defective_number,
    is_defective_coloring,
    is_valid_coloring,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    underlying_graph,
)

F = Fraction


def k4_undirected(weight=F(1)) -> UndirectedWeightedGraph:
    return UndirectedWeightedGraph(
        4, [(a, b, weight) for a in range(1, 5) for b in range(a + 1, 5)]
    )


def c5_undirected(weight=F(1)) -> UndirectedWeightedGraph:
    return UndirectedWeightedGraph(5, [(i, i % 5 + 1, weight) for i in range(1, 6)])


def assert_first_use_canonical(witness) -> None:
    seen: list[int] = []
    for v in sorted(witness):
        c = witness[v]
        assert c <= len(seen) + 1
        if c == len(seen) + 1:
            seen.append(c)


class TestExactChiW:
    def test_arcless(self):
        result = exact_chi_w(WeightedDigraph(5))
        assert result.chromatic == 1
        assert result.witness == {v: 1 for v in range(1, 6)}

    def test_empty(self):
        assert exact_chi_w(WeightedDigraph(0)).chromatic == 1

    def test_golden(self, golden5):
        result = exact_chi_w(golden5)
        assert result.chromatic == 2
        assert is_valid_coloring(golden5, result.witness)

    def test_triangle_of_halves_needs_two(self, triangle_half):
        result = exact_chi_w(triangle_half)
        assert result.chromatic == 2
        assert is_valid_coloring(triangle_half, result.witness)

    def test_prism_needs_three(self, prism_digraph):
        result = exact_chi_w(prism_digraph)
        assert result.chromatic == 3
        assert is_valid_coloring(prism_digraph, result.witness)

    def test_single_heavy_arc(self):
        G = WeightedDigraph(2, [(1, 2, F(1))])
        result = exact_chi_w(G)
        assert result.chromatic == 2
        assert result.witness[1] != result.witness[2]

    def test_weight_below_one_never_forces(self):
        G = WeightedDigraph(2, [(1, 2, F(99, 100))])
        assert exact_chi_w(G).chromatic == 1

    def test_zero_weight_arcs_are_free(self):
        G = WeightedDigraph(4, [(a, b, F(0)) for a in range(1, 5) for b in range(1, 5) if a != b])
        assert exact_chi_w(G).chromatic == 1

    def test_k_limit_infeasible_returns_none(self, prism_digraph):
        assert exact_chi_w(prism_digraph, k_limit=2) is None

    def test_k_limit_feasible(self, prism_digraph):
        assert exact_chi_w(prism_digraph, k_limit=3).chromatic == 3

    def test_k_limit_validated(self, golden5):
        with pytest.raises(PreconditionError):
            exact_chi_w(golden5, k_limit=0)

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError) as info:
            exact_chi_w(WeightedDigraph(17))
        assert str(info.value) == "exhaustive search is limited to 16 vertices, got 17"
        assert info.value.size == 17
        with pytest.raises(InstanceTooLargeError):
            exact_chi_w(WeightedDigraph(6), max_n=5)
        assert exact_chi_w(WeightedDigraph(17), max_n=17).chromatic == 1

    def test_work_limit(self, prism_digraph):
        result = exact_chi_w(prism_digraph)
        # summed over k = 1, 2 (both refuted) and 3: more than the
        # 10 + 9 + ... + 1 vertices one search without backtracking scans
        assert result.examined > 55
        # the limit is inclusive and changes no answer
        within = exact_chi_w(prism_digraph, work_limit=result.examined)
        assert within == result and within.examined == result.examined
        with pytest.raises(InstanceTooLargeError) as info:
            exact_chi_w(prism_digraph, work_limit=result.examined - 1)
        assert info.value.size == result.examined
        assert info.value.limit == result.examined - 1
        assert exact_chi_w(WeightedDigraph(0), work_limit=0).examined == 0

    def test_matches_direct_enumeration(self):
        for seed in range(30):
            G = random_instance(5, 0.5, seed=400 + seed, bits=2)
            result = exact_chi_w(G)
            expected, _ = bruteforce.brute_chi_w(G)
            assert result.chromatic == expected
            assert is_valid_coloring(G, result.witness)
            assert max(result.witness.values()) == expected

    def test_deterministic_witness(self, golden5):
        assert exact_chi_w(golden5) == exact_chi_w(golden5)

    def test_witness_colors_are_canonical(self, prism_digraph):
        assert_first_use_canonical(exact_chi_w(prism_digraph).witness)

    def test_clique_behind_light_arcs_is_colored_first(self):
        # K5 on vertices 12..16 and eleven 1/64 arcs into vertex 12: an
        # index-order search tries every coloring of 1..11 for each k < 5
        clique = [(a, b, F(1)) for a in range(12, 17) for b in range(12, 17) if a != b]
        G = WeightedDigraph(16, clique + [(t, 12, F(1, 64)) for t in range(1, 12)])
        start = time.perf_counter()
        result = exact_chi_w(G)
        assert time.perf_counter() - start < 2.0
        assert result.chromatic == 5
        assert is_valid_coloring(G, result.witness)

    def test_invariant_under_relabelling(self):
        rng = random.Random(900)
        for seed in range(20):
            n = rng.randint(2, 12)
            G = random_instance(n, 0.4, seed=900 + seed, bits=2)
            image = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            relabelled = WeightedDigraph(n, [(image[t], image[h], w) for t, h, w in G.arcs])
            result = exact_chi_w(relabelled)
            assert result.chromatic == exact_chi_w(G).chromatic
            assert is_valid_coloring(relabelled, result.witness)
            assert_first_use_canonical(result.witness)

    def test_monotone_under_arc_addition(self):
        for seed in range(10):
            G = random_instance(6, 0.3, seed=500 + seed, bits=2)
            base = exact_chi_w(G).chromatic
            present = {(t, h) for t, h, _ in G.arcs}
            extra = next(
                (
                    (t, h)
                    for t in G.vertices
                    for h in G.vertices
                    if t != h and (t, h) not in present
                ),
                None,
            )
            if extra is None:
                continue
            bigger = WeightedDigraph(G.n, list(G.arcs) + [(extra[0], extra[1], F(1))])
            assert exact_chi_w(bigger).chromatic >= base


def search_outcome(search, G: WeightedDigraph, **kwargs):
    """Everything a search reports: (chromatic, witness, examined), None,
    or the refusal's message, size and limit."""
    try:
        result = search(G, max_n=G.n, **kwargs)
    except InstanceTooLargeError as exc:
        return ("refused", str(exc), exc.size, exc.limit)
    return None if result is None else (result.chromatic, result.witness, result.examined)


def assert_matches_reference(G: WeightedDigraph) -> None:
    for k_limit in (None, 1, 2):
        got = search_outcome(exact_chi_w, G, k_limit=k_limit)
        assert got == search_outcome(bruteforce.reference_chi_w, G, k_limit=k_limit)
    for work_limit in (0, 10, 100, 50_000):
        got = search_outcome(exact_chi_w, G, work_limit=work_limit)
        assert got == search_outcome(bruteforce.reference_chi_w, G, work_limit=work_limit)


def ladder(k: int, scale: int, seed: int) -> WeightedDigraph:
    """The 2 x k ladder with weights m/scale, m in 1..scale, on both arc
    directions of every edge."""
    rng = random.Random(seed)
    pairs = [(2 * j + 1, 2 * j + 2) for j in range(k)]
    pairs += [(v, v + 2) for v in range(1, 2 * k - 1)]
    arcs = []
    for u, v in pairs:
        arcs.append((u, v, F(rng.randint(1, scale), scale)))
        arcs.append((v, u, F(rng.randint(1, scale), scale)))
    return WeightedDigraph(2 * k, arcs)


class TestMatchesReference:
    """The search with kept counts makes the same choices as the one that
    rescans every uncolored vertex's neighbors at each node: the same
    answers, witnesses, examined counts and refusals."""

    @pytest.mark.parametrize("weight_model", ["dyadic", "uniform-rational"])
    def test_random_instances(self, weight_model):
        rng = random.Random(f"reference:{weight_model}")
        for seed in range(300):
            n = rng.randint(1, 14)
            p = rng.uniform(0.1, 0.9)
            bits = rng.randint(1, 3)
            G = random_instance(n, p, seed=1500 + seed, weight_model=weight_model, bits=bits)
            assert_matches_reference(G)

    def test_subcubic_embeds(self):
        for n in range(1, 29):
            for seed in range(3):
                assert_matches_reference(embed_undirected(random_subcubic_instance(n, seed=seed)))

    @pytest.mark.parametrize("k", [16, 32])
    @pytest.mark.parametrize("scale", [2, 8, 10])
    def test_ladders(self, k, scale):
        assert_matches_reference(ladder(k, scale, seed=k * scale))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_partition_gadgets(self, seed):
        # the search backtracks out of dead ends here, so the scan often
        # stops at a vertex with no feasible color that sits behind
        # colored ones; examined counts only the uncolored ones before it
        rng = random.Random(seed)
        for m in range(4, 13):
            G, _ = partition_instance([rng.randint(1, 20) for _ in range(m)])
            assert_matches_reference(G)


class TestDefective:
    def test_is_defective_monochromatic_triangle(self):
        H = UndirectedWeightedGraph(3, [(1, 2, F(1)), (2, 3, F(1)), (1, 3, F(1))])
        mono = {1: 1, 2: 1, 3: 1}
        assert is_defective_coloring(H, mono, 2)
        assert not is_defective_coloring(H, mono, 1)

    def test_is_defective_ignores_weights(self):
        H = UndirectedWeightedGraph(2, [(1, 2, F(0))])
        assert not is_defective_coloring(H, {1: 1, 2: 1}, 0)

    def test_is_defective_requires_total_coloring(self):
        H = UndirectedWeightedGraph(2, [(1, 2, F(1))])
        with pytest.raises(PreconditionError):
            is_defective_coloring(H, {1: 1}, 0)

    def test_is_defective_rejects_negative_bound(self):
        with pytest.raises(PreconditionError):
            is_defective_coloring(UndirectedWeightedGraph(1), {1: 1}, -1)

    @pytest.mark.parametrize("d", range(4))
    @pytest.mark.parametrize("family", ["subcubic", "underlying"])
    def test_is_defective_counts_same_colored_neighbors(self, family, d):
        # underlying graphs of 0, 1/2, 1 arc weights keep weight-0 edges,
        # which count as neighbors too
        rng = random.Random(d)
        for seed in range(30):
            if family == "subcubic":
                H = random_subcubic_instance(rng.randint(0, 12), seed=seed)
            else:
                H = underlying_graph(random_instance(rng.randint(0, 8), 0.5, seed=seed, bits=1))
            coloring = {v: rng.randint(1, 3) for v in H.vertices}
            expected = all(bruteforce.defect_of(H, coloring, v) <= d for v in H.vertices)
            assert is_defective_coloring(H, coloring, d) == expected

    def test_k4_examples(self):
        assert exact_defective_number(k4_undirected(), 0).chromatic == 4
        assert exact_defective_number(k4_undirected(), 1).chromatic == 2
        assert exact_defective_number(k4_undirected(), 3).chromatic == 1

    def test_c5_examples(self):
        assert exact_defective_number(c5_undirected(), 0).chromatic == 3
        assert exact_defective_number(c5_undirected(), 1).chromatic == 2
        assert exact_defective_number(c5_undirected(), 2).chromatic == 1

    def test_witness_is_defective(self):
        result = exact_defective_number(k4_undirected(), 1)
        assert is_defective_coloring(k4_undirected(), result.witness, 1)
        assert not is_defective_coloring(k4_undirected(), result.witness, 0)

    def test_matches_direct_enumeration(self):
        for seed in range(20):
            H = random_instance(5, 0.5, seed=600 + seed)
            und = UndirectedWeightedGraph(
                5, [(t, h, w) for t, h, w in H.arcs if t < h]
            )
            for d in (0, 1, 2):
                got = exact_defective_number(und, d).chromatic
                assert got == bruteforce.brute_defective_number(und, d)

    def test_defect_monotone(self):
        H = c5_undirected()
        values = [exact_defective_number(H, d).chromatic for d in range(5)]
        assert values == sorted(values, reverse=True)

    def test_guard_is_fixed_at_16_vertices(self):
        assert exact_defective_number(UndirectedWeightedGraph(16), 0).chromatic == 1
        with pytest.raises(InstanceTooLargeError):
            exact_defective_number(UndirectedWeightedGraph(17), 0)


class TestChromaticUnderlying:
    def test_edgeless(self):
        assert exact_chromatic_underlying(UndirectedWeightedGraph(4)) == 1

    def test_zero_weight_edges_do_not_count(self):
        H = UndirectedWeightedGraph(3, [(1, 2, F(0)), (2, 3, F(0))])
        assert exact_chromatic_underlying(H) == 1

    def test_k4(self):
        assert exact_chromatic_underlying(k4_undirected()) == 4

    def test_odd_cycle(self):
        assert exact_chromatic_underlying(c5_undirected()) == 3

    def test_prism(self, prism):
        assert exact_chromatic_underlying(prism) == 3

    def test_bipartite(self):
        H = UndirectedWeightedGraph(
            6, [(a, b, F(1, 2)) for a in (1, 2, 3) for b in (4, 5, 6)]
        )
        assert exact_chromatic_underlying(H) == 2

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            exact_chromatic_underlying(UndirectedWeightedGraph(21))

    def test_guard_is_fixed_at_20_vertices(self):
        triangle = [(1, 2, F(1)), (2, 3, F(1)), (3, 1, F(1))]
        assert exact_chromatic_underlying(UndirectedWeightedGraph(20, triangle)) == 3
        with pytest.raises(InstanceTooLargeError):
            exact_chromatic_underlying(UndirectedWeightedGraph(21, triangle))

    def test_matches_direct_enumeration(self):
        for seed in range(25):
            G = random_instance(6, 0.4, seed=700 + seed)
            und = UndirectedWeightedGraph(6, [(t, h, w) for t, h, w in G.arcs if t < h])
            assert exact_chromatic_underlying(und) == bruteforce.brute_chromatic(und)

    def test_matches_direct_enumeration_on_eight_vertices(self):
        cases = [(0.4, seed) for seed in range(750, 754)] + [(0.6, 750), (0.6, 751)]
        for p, seed in cases:
            H = underlying_graph(random_instance(8, p, seed=seed))
            assert exact_chromatic_underlying(H) == bruteforce.brute_chromatic(H)


class TestCrossChecks:
    def test_chi_w_embeds_between_one_and_chromatic(self):
        # valid coloring of the embedded graph exists with chromatic
        # colors of the positive-weight underlying graph, never fewer
        # than needed
        for seed in range(10):
            H = random_instance(6, 0.4, seed=800 + seed)
            und = UndirectedWeightedGraph(6, [(t, h, w) for t, h, w in H.arcs if t < h])
            chi_w = exact_chi_w(embed_undirected(und)).chromatic
            assert 1 <= chi_w <= exact_chromatic_underlying(und)
